package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/trace"
)

// Config sets the server's barrier quantum; the zero value takes the
// default noted on the field.
type Config struct {
	// BarrierCycles is the quantum the loop runs between barriers
	// (default 8192). Every admitted mutation applies at a multiple of
	// this, which is the determinism contract of the whole plane.
	BarrierCycles uint64
	// Spin disables the idle sleep (tests; benchmark loops).
	Spin bool
}

// Admission and loop limits.
const (
	// maxPendingOps caps the queued-but-unapplied operation backlog;
	// beyond it submissions fail with ErrBacklog.
	maxPendingOps = 1024
	// maxBatchRecords caps one trace batch; maxPendingRecords caps a
	// port's total unreplayed backlog; maxStreams caps concurrent streams
	// per port; maxStreamCount caps one stream's bounded request count
	// (unbounded streams are refused, a drain must terminate).
	maxBatchRecords   = 256 << 10
	maxPendingRecords = 1 << 20
	maxStreams        = 64
	maxStreamCount    = 10_000_000
	// maxBodyBytes caps request bodies (8 MiB).
	maxBodyBytes = 8 << 20
	// oplogCap is the applied-operation ring size.
	oplogCap = 1024
	// drainQuietBarriers is how many consecutive no-activity barriers end
	// a drain; drainMaxCycles caps the cycles a drain may consume before
	// giving up on stragglers.
	drainQuietBarriers = 2
	drainMaxCycles     = 4 << 20
	// idleSleep is the wall-clock pause after a barrier in which nothing
	// happened, keeping an idle server off the CPU without adding latency
	// under load (skipped under Config.Spin).
	idleSleep = 200 * time.Microsecond
)

func (c *Config) fill() {
	if c.BarrierCycles == 0 {
		c.BarrierCycles = 8192
	}
}

// Sentinel submission errors; handlers map them to HTTP statuses.
var (
	// ErrStopped: the loop has exited; no further operations apply.
	ErrStopped = errors.New("serve: server stopped")
	// ErrBacklog: the pending-operation queue is full.
	ErrBacklog = errors.New("serve: operation backlog full")
)

// BarrierError rejects an operation pinned to an already-completed
// barrier.
type BarrierError struct {
	Requested, Completed uint64
}

func (e *BarrierError) Error() string {
	return fmt.Sprintf("serve: barrier %d already completed (at barrier %d)", e.Requested, e.Completed)
}

// op is one queued mutation (or barrier-consistent read).
type op struct {
	seq     uint64
	name    string
	barrier uint64 // apply before running quantum `barrier`; 0 = earliest
	fn      func(n *core.NIC, now uint64) (any, error)
	reply   chan opResult
}

type opResult struct {
	val any
	err error
}

// OplogEntry records one applied operation: enough to replay the session
// deterministically (same ops at the same barriers reproduce the run).
type OplogEntry struct {
	Seq     uint64 `json:"seq"`
	Barrier uint64 `json:"barrier"`
	Cycle   uint64 `json:"cycle"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	Err     string `json:"error,omitempty"`
}

// Statz is the published snapshot behind GET /statz.
type Statz struct {
	core.StatsSnapshot
	Barrier       uint64        `json:"barrier"`
	BarrierCycles uint64        `json:"barrier_cycles"`
	Draining      bool          `json:"draining"`
	OpsApplied    uint64        `json:"ops_applied"`
	OpsPending    int           `json:"ops_pending"`
	Ingest        []IngestStats `json:"ingest"`
	UptimeSeconds float64       `json:"uptime_seconds"`
}

// published is one snapshot as the loop published it, with its /statz
// body: the first handler to read the snapshot encodes it, and every later
// read until the next barrier writes the same bytes. The loop never
// encodes, so JSON stays off the barrier path.
type published struct {
	st   *Statz
	once sync.Once
	body []byte
}

// Server drives one NIC in cycle quanta and brokers all external access to
// it. Construct with New, serve s.Handler() over HTTP, then either call
// Start for the background loop or RunBarriers to drive it synchronously.
type Server struct {
	cfg    Config
	nic    *core.NIC
	tracer *trace.Tracer // nil = tracing off; GET /trace then 409s
	ports  []*IngestSource

	mu         sync.Mutex
	pending    []*op
	seq        uint64
	oplog      []OplogEntry
	opsApplied uint64
	closed     bool

	snap     atomic.Pointer[published]
	barrier  atomic.Uint64 // completed barriers
	draining atomic.Bool
	started  atomic.Bool

	// Drain progress, touched only on the loop goroutine.
	drainBase  uint64 // cycle at which drain began
	quiet      int    // consecutive inactive barriers while draining
	drainArmed bool

	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
	wallStart time.Time
}

// New wraps a NIC whose sources are the given ingest ports (built with
// NewIngestSources and fed to core.NewNIC). tracer may be nil.
func New(cfg Config, nic *core.NIC, tracer *trace.Tracer, ports []*IngestSource) *Server {
	cfg.fill()
	s := &Server{
		cfg:    cfg,
		nic:    nic,
		tracer: tracer,
		ports:  ports,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.publish()
	return s
}

// Barrier returns the number of completed barriers.
func (s *Server) Barrier() uint64 { return s.barrier.Load() }

// Start launches the background loop. Call once.
func (s *Server) Start() {
	s.wallStart = time.Now()
	s.started.Store(true)
	go s.loop()
}

// BeginDrain stops admitting work implicitly (readiness goes false) and
// makes the loop exit once drainQuietBarriers consecutive barriers pass
// with no deliveries, drops, applied ops, or pending ingest — or when
// drainMaxCycles have elapsed since the drain began.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Stop makes the loop exit at the next barrier without draining.
func (s *Server) Stop() { s.stopOnce.Do(func() { close(s.stop) }) }

// Wait blocks until the loop has exited.
func (s *Server) Wait() { <-s.done }

// Stopped reports whether the loop has exited.
func (s *Server) Stopped() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Draining reports whether a drain has been requested.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) loop() {
	defer s.shutdown()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		active := s.runBarrier()
		if s.draining.Load() {
			if !s.drainArmed {
				s.drainArmed = true
				s.drainBase = s.nic.Now()
				s.quiet = 0
			}
			if active {
				s.quiet = 0
			} else {
				s.quiet++
			}
			if s.quiet >= drainQuietBarriers {
				return
			}
			if s.nic.Now()-s.drainBase >= drainMaxCycles {
				return
			}
		} else if !active && !s.cfg.Spin {
			time.Sleep(idleSleep)
		}
	}
}

// shutdown fails every queued operation, marks the server closed, and
// publishes a final snapshot.
func (s *Server) shutdown() {
	s.mu.Lock()
	s.closed = true
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, o := range pending {
		o.reply <- opResult{err: ErrStopped}
	}
	s.publish()
	close(s.done)
}

// RunBarriers drives n barriers synchronously on the caller's goroutine —
// the deterministic harness used by tests and batch replays. It is the
// exact code path Start's loop runs; do not mix the two.
func (s *Server) RunBarriers(n int) {
	for i := 0; i < n; i++ {
		s.runBarrier()
	}
}

// runBarrier applies due operations at the current barrier (kernel
// strictly between Run calls), advances one quantum, then publishes a
// fresh snapshot. Returns whether anything happened: an op applied, a
// counter moved, or ingest work remains.
func (s *Server) runBarrier() bool {
	applied := s.applyDue()
	before := s.activity()
	s.nic.Run(s.cfg.BarrierCycles)
	s.barrier.Add(1)
	s.publish()
	active := applied > 0 || s.activity() != before
	if !active {
		now := s.nic.Now()
		for _, p := range s.ports {
			if p.pending(now) {
				active = true
				break
			}
		}
	}
	return active
}

// activity is the monotone delivered-or-dropped-or-received counter used
// for quiet detection: any in-flight message eventually moves it.
func (s *Server) activity() uint64 {
	a := s.nic.HostLat.Count + s.nic.WireLat.Count + s.nic.Drops.Value()
	for _, m := range s.nic.MACs {
		a += m.RxCount() + m.TxCount()
	}
	return a
}

// applyDue pops every operation due at the current barrier and applies
// them in (target barrier, submission sequence) order.
func (s *Server) applyDue() int {
	b := s.barrier.Load()
	s.mu.Lock()
	var due, future []*op
	for _, o := range s.pending {
		if o.barrier <= b {
			due = append(due, o)
		} else {
			future = append(future, o)
		}
	}
	s.pending = future
	s.mu.Unlock()
	if len(due) == 0 {
		return 0
	}
	sort.SliceStable(due, func(i, j int) bool {
		if due[i].barrier != due[j].barrier {
			return due[i].barrier < due[j].barrier
		}
		return due[i].seq < due[j].seq
	})
	now := s.nic.Now()
	for _, o := range due {
		val, err := o.fn(s.nic, now)
		e := OplogEntry{Seq: o.seq, Barrier: b, Cycle: now, Name: o.name}
		if err != nil {
			e.Err = err.Error()
		} else if val != nil {
			e.Detail = fmt.Sprintf("%+v", val)
		}
		s.mu.Lock()
		s.oplog = append(s.oplog, e)
		if len(s.oplog) > oplogCap {
			s.oplog = s.oplog[len(s.oplog)-oplogCap:]
		}
		s.opsApplied++
		s.mu.Unlock()
		o.reply <- opResult{val: val, err: err}
	}
	return len(due)
}

// publish refreshes the snapshot handlers serve. Runs on the loop
// goroutine (or the constructor, before the loop exists).
func (s *Server) publish() {
	st := &Statz{
		StatsSnapshot: s.nic.Snapshot(),
		Barrier:       s.barrier.Load(),
		BarrierCycles: s.cfg.BarrierCycles,
		Draining:      s.draining.Load(),
	}
	now := s.nic.Now()
	for _, p := range s.ports {
		st.Ingest = append(st.Ingest, p.Stats(now))
	}
	s.mu.Lock()
	st.OpsApplied = s.opsApplied
	st.OpsPending = len(s.pending)
	s.mu.Unlock()
	if !s.wallStart.IsZero() {
		st.UptimeSeconds = time.Since(s.wallStart).Seconds()
	}
	s.snap.Store(&published{st: st})
}

// Statz returns the latest published snapshot.
func (s *Server) Statz() *Statz { return s.snap.Load().st }

// statzBody returns the latest snapshot's /statz body, encoding it on the
// snapshot's first read.
func (s *Server) statzBody() []byte {
	p := s.snap.Load()
	p.once.Do(func() {
		var buf bytes.Buffer
		encodeJSON(&buf, p.st)
		p.body = buf.Bytes()
	})
	return p.body
}

// Oplog returns a copy of the applied-operation log.
func (s *Server) Oplog() []OplogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]OplogEntry(nil), s.oplog...)
}

// enqueue queues an operation without waiting. atBarrier == 0 means the
// earliest barrier; a non-zero target must not have completed yet. An op
// whose target passes while it sits in the queue still applies — at the
// first barrier after it is seen — and the oplog records where it landed.
func (s *Server) enqueue(name string, atBarrier uint64, fn func(*core.NIC, uint64) (any, error)) (*op, error) {
	if atBarrier != 0 {
		if b := s.barrier.Load(); atBarrier <= b {
			return nil, &BarrierError{Requested: atBarrier, Completed: b}
		}
	}
	o := &op{name: name, barrier: atBarrier, fn: fn, reply: make(chan opResult, 1)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStopped
	}
	if len(s.pending) >= maxPendingOps {
		return nil, ErrBacklog
	}
	s.seq++
	o.seq = s.seq
	s.pending = append(s.pending, o)
	return o, nil
}

// submit queues an operation and blocks until a barrier applies it.
func (s *Server) submit(name string, atBarrier uint64, fn func(*core.NIC, uint64) (any, error)) (any, error) {
	o, err := s.enqueue(name, atBarrier, fn)
	if err != nil {
		return nil, err
	}
	r := <-o.reply
	return r.val, r.err
}
