package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/panic-nic/panic/internal/packet"
)

// TraceRecord is one request of a recorded workload trace.
type TraceRecord struct {
	// Cycle is the arrival time.
	Cycle uint64
	// Tenant, Class, Op, Key, ValueLen, and WAN describe the request as
	// KVSTenantConfig would generate it.
	Tenant   uint16
	Class    packet.Class
	Op       packet.KVSOp
	Key      uint64
	ValueLen uint32
	WAN      bool
	// ClientNet selects the client subnet, as in KVSTenantConfig.
	ClientNet byte
}

// traceFields is the column count of the text format.
const traceFields = 8

// WriteTrace writes records in the repository's plain-text trace format:
// one record per line,
//
//	cycle tenant class op key valueLen wan clientNet
//
// with a leading '#' for comment lines.
func WriteTrace(w io.Writer, records []TraceRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# cycle tenant class op key valueLen wan clientNet"); err != nil {
		return err
	}
	for _, r := range records {
		wan := 0
		if r.WAN {
			wan = 1
		}
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %d %d %d\n",
			r.Cycle, r.Tenant, r.Class, r.Op, r.Key, r.ValueLen, wan, r.ClientNet); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the text trace format. Records must be sorted by cycle;
// out-of-order records are an error (replay is strictly chronological).
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	var records []TraceRecord
	sc := bufio.NewScanner(r)
	line := 0
	lastCycle := uint64(0)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Fields(text)
		if len(parts) != traceFields {
			return nil, fmt.Errorf("workload: trace line %d has %d fields, want %d", line, len(parts), traceFields)
		}
		vals := make([]uint64, traceFields)
		for i, p := range parts {
			v, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d field %d: %w", line, i+1, err)
			}
			vals[i] = v
		}
		rec := TraceRecord{
			Cycle:     vals[0],
			Tenant:    uint16(vals[1]),
			Class:     packet.Class(vals[2]),
			Op:        packet.KVSOp(vals[3]),
			Key:       vals[4],
			ValueLen:  uint32(vals[5]),
			WAN:       vals[6] != 0,
			ClientNet: byte(vals[7]),
		}
		if rec.Op < packet.KVSGet || rec.Op > packet.KVSSetResp {
			return nil, fmt.Errorf("workload: trace line %d: bad op %d", line, rec.Op)
		}
		if rec.Cycle < lastCycle {
			return nil, fmt.Errorf("workload: trace line %d: cycle %d before %d", line, rec.Cycle, lastCycle)
		}
		lastCycle = rec.Cycle
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return records, nil
}

// TraceSource replays a recorded trace as an engine.Source, rebuilding the
// same packets the live generator would produce.
type TraceSource struct {
	records []TraceRecord
	next    int
	id      uint64
	pool    *packet.MessagePool
}

// NewTraceSource builds a replay source.
func NewTraceSource(records []TraceRecord) *TraceSource {
	return &TraceSource{records: records}
}

// UsePool makes the replay build its messages from the given pool (see
// FixedStream.UsePool).
func (s *TraceSource) UsePool(p *packet.MessagePool) { s.pool = p }

// Remaining returns the number of unreplayed records.
func (s *TraceSource) Remaining() int { return len(s.records) - s.next }

// NextArrival implements engine.ArrivalSource: the next record's cycle
// (records are validated monotone at load time), or exhaustion.
func (s *TraceSource) NextArrival(now uint64) (uint64, bool) {
	if s.next >= len(s.records) {
		return 0, false
	}
	at := s.records[s.next].Cycle
	if at < now {
		at = now
	}
	return at, true
}

// Poll implements engine.Source.
func (s *TraceSource) Poll(now uint64) *packet.Message {
	if s.next >= len(s.records) || s.records[s.next].Cycle > now {
		return nil
	}
	r := s.records[s.next]
	s.next++
	s.id++
	payload := 0
	if r.Op == packet.KVSSet || r.Op == packet.KVSGetResp {
		payload = int(r.ValueLen)
	}
	m := s.pool.KVS(payload,
		packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
			Src: packet.IP4{10, r.ClientNet, byte(r.Tenant >> 8), byte(r.Tenant)}, Dst: packet.IP4{10, 255, 0, 2}},
		packet.UDP{SrcPort: 5000 + r.Tenant, DstPort: packet.KVSPort},
		packet.KVS{Op: r.Op, Tenant: r.Tenant, Key: r.Key, ValueLen: r.ValueLen},
	)
	m.ID = s.id
	m.Tenant = r.Tenant
	m.Class = r.Class
	if r.WAN {
		wrapESP(m)
	}
	return m
}

// Record captures a live source's output into trace records by draining it
// for the given number of cycles (a MAC-like poll loop).
func Record(src Source, cycles uint64) []TraceRecord {
	var records []TraceRecord
	for now := uint64(0); now < cycles; now++ {
		for {
			m := src.Poll(now)
			if m == nil {
				break
			}
			rec := TraceRecord{Cycle: now, Tenant: m.Tenant, Class: m.Class}
			pkt := m.Pkt
			if m.Inner != nil {
				rec.WAN = true
				pkt = m.Inner
			}
			if l := pkt.Layer(packet.LayerTypeKVS); l != nil {
				k := l.(*packet.KVS)
				rec.Op = k.Op
				rec.Key = k.Key
				rec.ValueLen = k.ValueLen
			} else {
				rec.Op = packet.KVSGet
			}
			if ip, ok := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ok {
				rec.ClientNet = ip.Src[1]
			}
			records = append(records, rec)
		}
	}
	return records
}
