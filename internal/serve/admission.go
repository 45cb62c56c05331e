package serve

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

// StreamDesc is the JSON body of POST /ingest/stream: one bounded
// open-loop KVS tenant stream (workload.KVSTenantConfig over the wire).
// Count is mandatory — the serve plane refuses unbounded streams because a
// drain must be able to terminate.
type StreamDesc struct {
	Port       int     `json:"port"`
	Tenant     uint16  `json:"tenant"`
	Class      string  `json:"class"` // "bulk", "latency", or "control"
	RateGbps   float64 `json:"rate_gbps"`
	Poisson    bool    `json:"poisson"`
	Keys       uint64  `json:"keys"`
	ZipfS      float64 `json:"zipf_s"`    // 0 = default skew (1.07)
	GetRatio   float64 `json:"get_ratio"` // fraction of GETs, in [0,1]
	WANShare   float64 `json:"wan_share"` // fraction arriving over IPSec, in [0,1]
	ValueBytes uint32  `json:"value_bytes"`
	Count      uint64  `json:"count"` // required; bounded request count
	Seed       uint64  `json:"seed"`
}

// parseClass maps the wire name to a traffic class.
func parseClass(s string) (packet.Class, error) {
	switch s {
	case "", "bulk":
		return packet.ClassBulk, nil
	case "latency":
		return packet.ClassLatency, nil
	case "control":
		return packet.ClassControl, nil
	}
	return 0, fmt.Errorf("unknown class %q (want bulk, latency, or control)", s)
}

// validateStream rejects descriptors that would panic the workload
// constructor or violate the server's admission bounds.
func (s *Server) validateStream(d *StreamDesc) error {
	if d.Port < 0 || d.Port >= len(s.ports) {
		return fmt.Errorf("port %d out of [0,%d)", d.Port, len(s.ports))
	}
	if d.Tenant < 1 {
		return fmt.Errorf("tenant must be >= 1")
	}
	if _, err := parseClass(d.Class); err != nil {
		return err
	}
	if !(d.RateGbps > 0) || d.RateGbps > 1000 {
		return fmt.Errorf("rate_gbps %v out of (0,1000]", d.RateGbps)
	}
	if d.Keys < 1 {
		return fmt.Errorf("keys must be >= 1")
	}
	if d.ZipfS != 0 && !(d.ZipfS > 1) {
		return fmt.Errorf("zipf_s %v must be > 1 (or 0 for the default)", d.ZipfS)
	}
	if d.GetRatio < 0 || d.GetRatio > 1 {
		return fmt.Errorf("get_ratio %v out of [0,1]", d.GetRatio)
	}
	if d.WANShare < 0 || d.WANShare > 1 {
		return fmt.Errorf("wan_share %v out of [0,1]", d.WANShare)
	}
	if d.ValueBytes > 1<<20 {
		return fmt.Errorf("value_bytes %d exceeds 1 MiB", d.ValueBytes)
	}
	if d.Count < 1 || d.Count > maxStreamCount {
		return fmt.Errorf("count %d out of [1,%d] (unbounded streams are not admitted)", d.Count, maxStreamCount)
	}
	return nil
}

// buildStream realizes the descriptor against the NIC's clock frequency.
// The client subnet is tied to the ingress port, matching how batch runs
// wire KVS tenants to ports.
func (d *StreamDesc) buildStream(freqHz float64) *workload.KVSStream {
	class, _ := parseClass(d.Class)
	return workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant:     d.Tenant,
		Class:      class,
		RateGbps:   d.RateGbps,
		FreqHz:     freqHz,
		Poisson:    d.Poisson,
		Keys:       d.Keys,
		ZipfS:      d.ZipfS,
		GetRatio:   d.GetRatio,
		WANShare:   d.WANShare,
		ValueBytes: d.ValueBytes,
		ClientNet:  byte(d.Port),
		Count:      d.Count,
		Seed:       d.Seed,
	})
}

// validateBatch checks an already-parsed trace batch against the port's
// admission bounds. Called at submission time for fast rejection and again
// under the barrier for the authoritative backlog check.
func (s *Server) validateBatch(port int, records []workload.TraceRecord) error {
	if port < 0 || port >= len(s.ports) {
		return fmt.Errorf("port %d out of [0,%d)", port, len(s.ports))
	}
	if len(records) == 0 {
		return fmt.Errorf("empty batch")
	}
	if len(records) > maxBatchRecords {
		return fmt.Errorf("batch of %d records exceeds cap %d", len(records), maxBatchRecords)
	}
	for i, r := range records {
		if r.Tenant < 1 {
			return fmt.Errorf("record %d: tenant must be >= 1", i)
		}
		if r.Class > packet.ClassControl {
			return fmt.Errorf("record %d: unknown class %d", i, r.Class)
		}
	}
	return nil
}

// checkBacklog is the barrier-time admission gate: the port's unreplayed
// backlog plus the new batch must fit maxPendingRecords.
func (s *Server) checkBacklog(port, adding int) error {
	if p := s.ports[port].pendingRecords(); p+adding > maxPendingRecords {
		return fmt.Errorf("port %d backlog %d + %d exceeds cap %d", port, p, adding, maxPendingRecords)
	}
	return nil
}

// checkStreamSlot is the barrier-time gate on concurrent streams per port.
func (s *Server) checkStreamSlot(port int, now uint64) error {
	active := 0
	for _, st := range s.ports[port].streams {
		if _, ok := st.NextArrival(now); ok {
			active++
		}
	}
	if active >= maxStreams {
		return fmt.Errorf("port %d already has %d active streams (cap %d)", port, active, maxStreams)
	}
	return nil
}

// parseIPv4 parses a dotted-quad address into the uint64 field encoding
// the RMT ACL stage matches on.
func parseIPv4(s string) (uint64, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bad IPv4 address %q", s)
	}
	var v uint64
	for _, p := range parts {
		o, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad IPv4 address %q", s)
		}
		v = v<<8 | o
	}
	return v, nil
}
