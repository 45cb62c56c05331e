package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/workload"
)

// loadServer starts a served NIC on a real TCP listener (the httptest
// client pool caps concurrency, so the load tests speak raw TCP). The
// ConnState callback tracks the concurrent-connection high-water mark.
func loadServer(t *testing.T) (*Server, net.Addr, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TenantWeights = map[uint16]uint64{1: 1, 2: 1}
	ports := NewIngestSources(cfg.Ports)
	nic := core.NewNIC(cfg, AsEngineSources(ports))
	s := New(Config{Spin: true}, nic, nil, ports)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var cur, peak atomic.Int64
	hs := &http.Server{
		Handler: s.Handler(),
		ConnState: func(c net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
			case http.StateClosed, http.StateHijacked:
				cur.Add(-1)
			}
		},
	}
	go hs.Serve(ln)
	s.Start()
	t.Cleanup(func() {
		hs.Close()
		s.Stop()
		s.Wait()
		nic.Close()
	})
	return s, ln.Addr(), &cur, &peak
}

// TestLoadThousandConnections is the acceptance load harness: hold 1,000
// concurrent client connections open against the serve plane, then have
// every one of them fetch /statz and check the response. Logs the served
// request rate for EXPERIMENTS.md.
func TestLoadThousandConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("opens 1000 TCP connections")
	}
	const clients = 1000
	_, addr, cur, peak := loadServer(t)

	conns := make([]net.Conn, clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	var dialWG sync.WaitGroup
	dialErrs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			c, err := net.DialTimeout("tcp", addr.String(), 30*time.Second)
			if err != nil {
				dialErrs <- fmt.Errorf("dial %d: %w", i, err)
				return
			}
			c.SetDeadline(time.Now().Add(60 * time.Second))
			conns[i] = c
		}(i)
	}
	dialWG.Wait()
	close(dialErrs)
	for err := range dialErrs {
		t.Fatal(err)
	}
	// All dials succeeded; wait until the server has accepted every one,
	// so the high-water mark counts truly concurrent connections.
	deadline := time.Now().Add(30 * time.Second)
	for cur.Load() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d/%d connections", cur.Load(), clients)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p := peak.Load(); p < clients {
		t.Fatalf("concurrent-connection high-water mark %d, want >= %d", p, clients)
	}

	// Every held connection now issues one request, all at once.
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			if _, err := io.WriteString(c, "GET /statz HTTP/1.1\r\nHost: load\r\nConnection: close\r\n\r\n"); err != nil {
				errs <- fmt.Errorf("conn %d: write: %w", i, err)
				return
			}
			br := bufio.NewReader(c)
			status, err := br.ReadString('\n')
			if err != nil {
				errs <- fmt.Errorf("conn %d: read status: %w", i, err)
				return
			}
			if !strings.HasPrefix(status, "HTTP/1.1 200") {
				errs <- fmt.Errorf("conn %d: status %q", i, strings.TrimSpace(status))
				return
			}
			body, err := io.ReadAll(br)
			if err != nil {
				errs <- fmt.Errorf("conn %d: read body: %w", i, err)
				return
			}
			if !strings.Contains(string(body), `"barrier"`) {
				errs <- fmt.Errorf("conn %d: body is not a statz snapshot", i)
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		if failed <= 5 {
			t.Error(err)
		}
	}
	if failed > 5 {
		t.Errorf("... and %d more connection errors", failed-5)
	}
	t.Logf("%d concurrent connections (peak %d): %d /statz requests in %v (%.0f req/s)",
		clients, peak.Load(), clients, elapsed.Round(time.Millisecond),
		float64(clients)/elapsed.Seconds())
}

// loadRecords builds one ingest batch: count records, 10 cycles apart,
// alternating tenants, all KVS GETs.
func loadRecords(count int) []workload.TraceRecord {
	recs := make([]workload.TraceRecord, count)
	for i := range recs {
		recs[i] = workload.TraceRecord{
			Cycle:  uint64(i * 10),
			Tenant: uint16(1 + i%2), Class: 1,
			Op: 1, Key: uint64(i % 128),
		}
	}
	return recs
}

func formatBatch(recs []workload.TraceRecord) string {
	var sb strings.Builder
	for _, r := range recs {
		wan := 0
		if r.WAN {
			wan = 1
		}
		fmt.Fprintf(&sb, "%d %d %d %d %d %d %d %d\n",
			r.Cycle, r.Tenant, r.Class, r.Op, r.Key, r.ValueLen, wan, r.ClientNet)
	}
	return sb.String()
}

// settled counts messages that have reached a terminal state: delivered
// to the host or wire, or dropped by an overfull scheduler/RMT queue (the
// replay is a deliberate burst, so some drops are legitimate).
func settled(st *Statz) uint64 {
	return st.HostDeliveries + st.WireDeliveries + st.SchedDrops + st.RMTDropped
}

// TestLoadIngestOverhead measures what the HTTP ingest path costs over
// direct barrier-time admission: the same record set is replayed once
// admitted in-process (RunBarriers harness) and once POSTed by concurrent
// HTTP clients, and the wall-clock to full delivery is compared. Logs
// replayed msgs/s for EXPERIMENTS.md.
func TestLoadIngestOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("replays large batches")
	}
	const (
		clients   = 16
		perClient = 1000
		total     = clients * perClient
	)

	// Direct: admit every batch at barrier 1, run to delivery.
	direct := func() time.Duration {
		cfg := core.DefaultConfig()
		cfg.TenantWeights = map[uint16]uint64{1: 1, 2: 1}
		ports := NewIngestSources(cfg.Ports)
		nic := core.NewNIC(cfg, AsEngineSources(ports))
		defer nic.Close()
		s := New(Config{Spin: true}, nic, nil, ports)
		for i := 0; i < clients; i++ {
			recs := loadRecords(perClient)
			mustEnqueue(t, s, "batch", 1, func(n *core.NIC, now uint64) (any, error) {
				rc := append([]workload.TraceRecord(nil), recs...)
				for j := range rc {
					rc[j].Cycle += now
				}
				ports[i%len(ports)].admitBatch(rc)
				return nil, nil
			})
		}
		start := time.Now()
		for {
			s.RunBarriers(8)
			if n := settled(s.Statz()); n >= total {
				return time.Since(start)
			} else if time.Since(start) > 60*time.Second {
				t.Fatalf("direct replay stalled: %d/%d settled", n, total)
			}
		}
	}()

	// HTTP: the same batches POSTed by concurrent clients against the
	// live loop, measured to the same full-delivery condition.
	s, addr, _, _ := loadServer(t)
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := formatBatch(loadRecords(perClient))
			url := fmt.Sprintf("http://%s/ingest/trace?port=%d", addr, i%2)
			resp, err := client.Post(url, "text/plain", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("client %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if n := settled(s.Statz()); n >= total {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("http replay stalled: %d/%d settled", n, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	httpElapsed := time.Since(start)

	overhead := float64(httpElapsed-direct) / float64(direct) * 100
	t.Logf("replayed %d msgs: direct %v (%.0f msgs/s), http x%d clients %v (%.0f msgs/s), ingest overhead %+.0f%%",
		total, direct.Round(time.Millisecond), float64(total)/direct.Seconds(),
		clients, httpElapsed.Round(time.Millisecond), float64(total)/httpElapsed.Seconds(),
		overhead)
}
