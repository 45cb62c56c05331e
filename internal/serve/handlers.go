package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"github.com/panic-nic/panic/internal/packet"
	"net/http"
	"sort"
	"strconv"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

// route is one row of the API surface. The table below is the single
// source of truth: the mux is built from it, GET / serves it, and
// cmd/doccheck scans it to hold SERVICE.md to the implemented routes.
// Keep each literal on one line — the doccheck scanner is line-based.
type route struct {
	method  string
	pattern string
	summary string
	h       func(*Server) http.HandlerFunc
}

// routes is filled by init (not a composite-literal initializer: the index
// handler reads the table, which would otherwise be an initialization
// cycle).
var routes []route

func init() {
	routes = []route{
		{method: "GET", pattern: "/", summary: "API index: every route with its one-line summary", h: (*Server).handleIndex},
		{method: "GET", pattern: "/healthz", summary: "liveness: 200 while the barrier loop runs", h: (*Server).handleHealthz},
		{method: "GET", pattern: "/readyz", summary: "readiness: 200 when started, not draining, not stopped", h: (*Server).handleReadyz},
		{method: "GET", pattern: "/statz", summary: "latest published metrics snapshot (JSON)", h: (*Server).handleStatz},
		{method: "GET", pattern: "/oplog", summary: "applied-operation log: seq, barrier, cycle, result", h: (*Server).handleOplog},
		{method: "GET", pattern: "/trace", summary: "deterministic span trace as Perfetto-loadable Chrome JSON", h: (*Server).handleTrace},
		{method: "GET", pattern: "/tenants", summary: "per-tenant weights and latency/throughput rows", h: (*Server).handleTenants},
		{method: "GET", pattern: "/tenants/{id}", summary: "one tenant's weight and stats, read at a barrier", h: (*Server).handleTenantGet},
		{method: "PUT", pattern: "/tenants/{id}", summary: "set one tenant's scheduler weight at a barrier", h: (*Server).handleTenantPut},
		{method: "DELETE", pattern: "/tenants/{id}", summary: "drop a tenant's explicit weight (revert to default)", h: (*Server).handleTenantDelete},
		{method: "POST", pattern: "/reload/weights", summary: "replace the whole weighted-LSTF weight table", h: (*Server).handleReloadWeights},
		{method: "POST", pattern: "/reload/program", summary: "apply RMT program edits: acl-drop, acl-clear, steer, steer-tenant", h: (*Server).handleReloadProgram},
		{method: "POST", pattern: "/faults", summary: "inject a fault plan (text format, cycles relative to the barrier)", h: (*Server).handleFaults},
		{method: "POST", pattern: "/ingest/trace", summary: "admit a trace batch (text format) for replay on ?port=N", h: (*Server).handleIngestTrace},
		{method: "POST", pattern: "/ingest/stream", summary: "admit a bounded open-loop KVS stream (JSON descriptor)", h: (*Server).handleIngestStream},
		{method: "POST", pattern: "/drain", summary: "begin graceful drain: finish admitted work, then stop", h: (*Server).handleDrain},
	}
}

// Handler builds the server's http.Handler from the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		pat := rt.pattern
		if pat == "/" {
			pat = "/{$}" // exact-match root; bare "/" would swallow every path
		}
		mux.HandleFunc(rt.method+" "+pat, rt.h(s))
	}
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

// --- plumbing ---------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitHTTP runs fn at the requested barrier (the ?barrier=k query
// parameter; absent = next) and maps submission failures onto statuses:
// 409 for an already-completed barrier, 429 for a full op queue, 503 once
// the loop has exited, 400 for anything the operation itself rejected.
func (s *Server) submitHTTP(w http.ResponseWriter, r *http.Request, name string, fn func(*core.NIC, uint64) (any, error)) (any, bool) {
	atBarrier := uint64(0)
	if q := r.URL.Query().Get("barrier"); q != "" {
		b, err := strconv.ParseUint(q, 10, 64)
		if err != nil || b == 0 {
			httpError(w, http.StatusBadRequest, "bad barrier %q", q)
			return nil, false
		}
		atBarrier = b
	}
	val, err := s.submit(name, atBarrier, fn)
	if err != nil {
		var be *BarrierError
		switch {
		case errors.As(err, &be):
			httpError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, ErrBacklog):
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrStopped):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return nil, false
	}
	return val, true
}

func tenantID(r *http.Request) (uint16, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 16)
	if err != nil || id == 0 {
		return 0, fmt.Errorf("bad tenant id %q", r.PathValue("id"))
	}
	return uint16(id), nil
}

// --- read endpoints ---------------------------------------------------

func (s *Server) handleIndex() http.HandlerFunc {
	type row struct {
		Method  string `json:"method"`
		Path    string `json:"path"`
		Summary string `json:"summary"`
	}
	var idx []row
	for _, rt := range routes {
		idx = append(idx, row{rt.method, rt.pattern, rt.summary})
	}
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, idx)
	}
}

func (s *Server) handleHealthz() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Stopped() {
			httpError(w, http.StatusServiceUnavailable, "stopped")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "barrier": s.Barrier()})
	}
}

func (s *Server) handleReadyz() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.Stopped():
			httpError(w, http.StatusServiceUnavailable, "stopped")
		case s.Draining():
			httpError(w, http.StatusServiceUnavailable, "draining")
		case !s.started.Load():
			httpError(w, http.StatusServiceUnavailable, "not started")
		default:
			writeJSON(w, http.StatusOK, map[string]any{"ready": true, "barrier": s.Barrier()})
		}
	}
}

func (s *Server) handleStatz() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Statz())
	}
}

func (s *Server) handleOplog() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Oplog())
	}
}

func (s *Server) handleTrace() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.tracer == nil {
			httpError(w, http.StatusConflict, "tracing is not armed (start the server with -trace)")
			return
		}
		val, ok := s.submitHTTP(w, r, "trace-export", func(n *core.NIC, now uint64) (any, error) {
			return s.tracer.Snapshot(), nil
		})
		if !ok {
			return
		}
		set := val.(*trace.Set)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename=panic-trace.json")
		set.WriteChrome(w)
	}
}

func (s *Server) handleTenants() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Statz().Tenants)
	}
}

// --- tenant weight CRUD -----------------------------------------------

func (s *Server) handleTenantGet() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := tenantID(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for _, t := range s.Statz().Tenants {
			if t.Tenant == id {
				writeJSON(w, http.StatusOK, t)
				return
			}
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("tenant-get %d", id), func(n *core.NIC, now uint64) (any, error) {
			return core.TenantSnapshot{Tenant: id, Weight: n.TenantWeight(id)}, nil
		})
		if ok {
			writeJSON(w, http.StatusOK, val)
		}
	}
}

func (s *Server) handleTenantPut() http.HandlerFunc {
	type req struct {
		Weight uint64 `json:"weight"`
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := tenantID(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		var body req
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		if body.Weight < 1 {
			httpError(w, http.StatusBadRequest, "weight must be >= 1")
			return
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("tenant-weight %d=%d", id, body.Weight), func(n *core.NIC, now uint64) (any, error) {
			weights := make(map[uint16]uint64, len(n.Cfg.TenantWeights)+1)
			for t, wt := range n.Cfg.TenantWeights {
				weights[t] = wt
			}
			weights[id] = body.Weight
			if err := n.SetTenantWeights(weights); err != nil {
				return nil, err
			}
			wr := weightsResult(n, now)
			wr.Barrier = s.Barrier()
			return wr, nil
		})
		if ok {
			writeJSON(w, http.StatusOK, val)
		}
	}
}

func (s *Server) handleTenantDelete() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := tenantID(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("tenant-weight-delete %d", id), func(n *core.NIC, now uint64) (any, error) {
			if _, explicit := n.Cfg.TenantWeights[id]; !explicit {
				return nil, fmt.Errorf("tenant %d has no explicit weight", id)
			}
			weights := make(map[uint16]uint64, len(n.Cfg.TenantWeights))
			for t, wt := range n.Cfg.TenantWeights {
				if t != id {
					weights[t] = wt
				}
			}
			if err := n.SetTenantWeights(weights); err != nil {
				return nil, err
			}
			wr := weightsResult(n, now)
			wr.Barrier = s.Barrier()
			return wr, nil
		})
		if ok {
			writeJSON(w, http.StatusOK, val)
		}
	}
}

// weightsReply is the response body of every weight mutation.
type weightsReply struct {
	Weights map[string]uint64 `json:"weights"`
	Barrier uint64            `json:"barrier"`
	Cycle   uint64            `json:"cycle"`
}

func weightsResult(n *core.NIC, now uint64) weightsReply {
	out := weightsReply{Weights: make(map[string]uint64, len(n.Cfg.TenantWeights)), Cycle: now}
	ids := make([]int, 0, len(n.Cfg.TenantWeights))
	for t := range n.Cfg.TenantWeights {
		ids = append(ids, int(t))
	}
	sort.Ints(ids)
	for _, t := range ids {
		out.Weights[strconv.Itoa(t)] = n.Cfg.TenantWeights[uint16(t)]
	}
	return out
}

// --- hot reload -------------------------------------------------------

func (s *Server) handleReloadWeights() http.HandlerFunc {
	type req struct {
		Weights map[string]uint64 `json:"weights"`
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var body req
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		weights := make(map[uint16]uint64, len(body.Weights))
		for k, wt := range body.Weights {
			id, err := strconv.ParseUint(k, 10, 16)
			if err != nil || id == 0 {
				httpError(w, http.StatusBadRequest, "bad tenant id %q", k)
				return
			}
			if wt < 1 {
				httpError(w, http.StatusBadRequest, "tenant %s: weight must be >= 1", k)
				return
			}
			weights[uint16(id)] = wt
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("reload-weights n=%d", len(weights)), func(n *core.NIC, now uint64) (any, error) {
			if err := n.SetTenantWeights(weights); err != nil {
				return nil, err
			}
			wr := weightsResult(n, now)
			wr.Barrier = s.Barrier()
			return wr, nil
		})
		if ok {
			writeJSON(w, http.StatusOK, val)
		}
	}
}

// programOp is one edit in a POST /reload/program batch. The batch is a
// single operation: all edits land at the same barrier, in order.
type programOp struct {
	Op        string `json:"op"`                   // acl-drop | acl-clear | steer | steer-tenant
	SrcPrefix string `json:"src_prefix,omitempty"` // acl-drop: dotted-quad IPv4
	PrefixLen int    `json:"prefix_len,omitempty"` // acl-drop: 0..32
	Priority  int    `json:"priority,omitempty"`   // acl-drop: ternary priority
	From      string `json:"from,omitempty"`       // steer*: engine name or numeric address
	To        string `json:"to,omitempty"`
	Tenant    uint16 `json:"tenant,omitempty"` // steer-tenant
}

// programReply is the response body of POST /reload/program.
type programReply struct {
	Applied           []string `json:"applied"`
	ProgramGeneration uint64   `json:"program_generation"`
	Barrier           uint64   `json:"barrier"`
	Cycle             uint64   `json:"cycle"`
}

func (s *Server) handleReloadProgram() http.HandlerFunc {
	type req struct {
		Ops []programOp `json:"ops"`
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var body req
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		if len(body.Ops) == 0 {
			httpError(w, http.StatusBadRequest, "no ops")
			return
		}
		// Validate the whole batch before queueing: program edits are not
		// transactional across the barrier, so reject what we can early.
		names := core.EngineAddrs()
		for i, op := range body.Ops {
			if err := validateProgramOp(op, names); err != nil {
				httpError(w, http.StatusBadRequest, "op %d: %v", i, err)
				return
			}
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("reload-program n=%d", len(body.Ops)), func(n *core.NIC, now uint64) (any, error) {
			reply := programReply{Cycle: now}
			for i, op := range body.Ops {
				detail, err := applyProgramOp(n, op, names)
				if err != nil {
					// Earlier edits in the batch have landed; say so.
					return nil, fmt.Errorf("op %d (%d applied): %w", i, len(reply.Applied), err)
				}
				reply.Applied = append(reply.Applied, detail)
			}
			reply.ProgramGeneration = n.ProgramGeneration()
			reply.Barrier = s.Barrier()
			return reply, nil
		})
		if ok {
			writeJSON(w, http.StatusOK, val)
		}
	}
}

func parseEngine(s string, names map[string]packet.Addr) (packet.Addr, error) {
	if a, ok := names[s]; ok {
		return a, nil
	}
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		return packet.Addr(v), nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

func validateProgramOp(op programOp, names map[string]packet.Addr) error {
	switch op.Op {
	case "acl-drop":
		if _, err := parseIPv4(op.SrcPrefix); err != nil {
			return err
		}
		if op.PrefixLen < 0 || op.PrefixLen > 32 {
			return fmt.Errorf("prefix_len %d out of [0,32]", op.PrefixLen)
		}
	case "acl-clear":
	case "steer", "steer-tenant":
		if _, err := parseEngine(op.From, names); err != nil {
			return err
		}
		if _, err := parseEngine(op.To, names); err != nil {
			return err
		}
		if op.Op == "steer-tenant" && op.Tenant == 0 {
			return fmt.Errorf("steer-tenant needs a tenant >= 1")
		}
	default:
		return fmt.Errorf("unknown op %q (want acl-drop, acl-clear, steer, or steer-tenant)", op.Op)
	}
	return nil
}

func applyProgramOp(n *core.NIC, op programOp, names map[string]packet.Addr) (string, error) {
	switch op.Op {
	case "acl-drop":
		prefix, _ := parseIPv4(op.SrcPrefix)
		if err := n.InstallACLDrop(prefix, op.PrefixLen, op.Priority); err != nil {
			return "", err
		}
		return fmt.Sprintf("acl-drop %s/%d", op.SrcPrefix, op.PrefixLen), nil
	case "acl-clear":
		return fmt.Sprintf("acl-clear removed=%d", n.ClearACL()), nil
	case "steer":
		from, _ := parseEngine(op.From, names)
		to, _ := parseEngine(op.To, names)
		hops, err := n.RewriteSteering(from, to)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("steer %s->%s hops=%d", op.From, op.To, hops), nil
	case "steer-tenant":
		from, _ := parseEngine(op.From, names)
		to, _ := parseEngine(op.To, names)
		hops, err := n.RewriteSteeringTenant(from, to, op.Tenant)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("steer-tenant %d %s->%s hops=%d", op.Tenant, op.From, op.To, hops), nil
	}
	return "", fmt.Errorf("unknown op %q", op.Op)
}

// --- fault injection --------------------------------------------------

func (s *Server) handleFaults() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		plan, err := fault.ParsePlan(r.Body, core.EngineAddrs())
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(plan.Events) == 0 {
			httpError(w, http.StatusBadRequest, "empty plan")
			return
		}
		// Cycles in the body are relative to the admission barrier;
		// "at 0" would be the barrier cycle itself, which the kernel
		// cannot schedule — require at >= 1.
		for i, e := range plan.Events {
			if e.At == 0 {
				httpError(w, http.StatusBadRequest, "event %d: at must be >= 1 (cycles are relative to the admission barrier)", i)
				return
			}
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("inject-faults n=%d", len(plan.Events)), func(n *core.NIC, now uint64) (any, error) {
			if err := n.InjectFaultPlan(plan.Shifted(now)); err != nil {
				return nil, err
			}
			return map[string]any{"events": len(plan.Events), "base_cycle": now}, nil
		})
		if ok {
			writeJSON(w, http.StatusOK, val)
		}
	}
}

// --- ingest -----------------------------------------------------------

// ingestReply is the response body of both ingest endpoints.
type ingestReply struct {
	Port      int    `json:"port"`
	Records   int    `json:"records,omitempty"`
	Tenant    uint16 `json:"tenant,omitempty"`
	Count     uint64 `json:"count,omitempty"`
	BaseCycle uint64 `json:"base_cycle"`
	Barrier   uint64 `json:"barrier"`
}

func (s *Server) handleIngestTrace() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		port := 0
		if q := r.URL.Query().Get("port"); q != "" {
			p, err := strconv.Atoi(q)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad port %q", q)
				return
			}
			port = p
		}
		records, err := workload.ReadTrace(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.validateBatch(port, records); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("ingest-trace port=%d n=%d", port, len(records)), func(n *core.NIC, now uint64) (any, error) {
			if err := s.checkBacklog(port, len(records)); err != nil {
				return nil, err
			}
			for i := range records {
				records[i].Cycle += now
			}
			s.ports[port].admitBatch(records)
			return ingestReply{Port: port, Records: len(records), BaseCycle: now, Barrier: s.Barrier()}, nil
		})
		if ok {
			writeJSON(w, http.StatusAccepted, val)
		}
	}
}

func (s *Server) handleIngestStream() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var desc StreamDesc
		if err := json.NewDecoder(r.Body).Decode(&desc); err != nil {
			httpError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		if err := s.validateStream(&desc); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		val, ok := s.submitHTTP(w, r, fmt.Sprintf("ingest-stream port=%d tenant=%d n=%d", desc.Port, desc.Tenant, desc.Count), func(n *core.NIC, now uint64) (any, error) {
			if err := s.checkStreamSlot(desc.Port, now); err != nil {
				return nil, err
			}
			s.ports[desc.Port].admitStream(desc.buildStream(n.Cfg.FreqHz))
			return ingestReply{Port: desc.Port, Tenant: desc.Tenant, Count: desc.Count, BaseCycle: now, Barrier: s.Barrier()}, nil
		})
		if ok {
			writeJSON(w, http.StatusAccepted, val)
		}
	}
}

// --- lifecycle --------------------------------------------------------

func (s *Server) handleDrain() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.BeginDrain()
		writeJSON(w, http.StatusAccepted, map[string]any{"draining": true, "barrier": s.Barrier()})
	}
}

// RoutePatterns returns "METHOD pattern" for every route, in table order
// (used by tests and the doccheck gate).
func RoutePatterns() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.method + " " + rt.pattern
	}
	return out
}
