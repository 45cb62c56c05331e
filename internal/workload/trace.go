package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
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

// traceFieldNames and traceFieldMax name each column and bound it by the
// type of the TraceRecord field it fills; WAN is a flag.
var (
	traceFieldNames = [traceFields]string{"cycle", "tenant", "class", "op", "key", "valueLen", "wan", "clientNet"}
	traceFieldMax   = [traceFields]uint64{math.MaxUint64, math.MaxUint16, math.MaxUint8, math.MaxUint8, math.MaxUint64, math.MaxUint32, 1, math.MaxUint8}
)

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

// ReadTrace parses the text trace format. Fields are unsigned decimals as
// strconv.ParseUint reads them, separated by white space; a value that does
// not fit its field (traceFieldMax) is an error. Records must be sorted by
// cycle; out-of-order records are an error (replay is strictly
// chronological).
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	var records []TraceRecord
	sc := bufio.NewScanner(r)
	line := 0
	lastCycle := uint64(0)
	var vals [traceFields]uint64
	for sc.Scan() {
		line++
		ok, err := parseTraceLine(sc.Bytes(), line, &vals)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for i, v := range vals {
			if v > traceFieldMax[i] {
				return nil, fmt.Errorf("workload: trace line %d field %d: %s %d out of range [0, %d]",
					line, i+1, traceFieldNames[i], v, traceFieldMax[i])
			}
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

// parseTraceLine parses one line's fields into vals; it reports false for
// a blank or comment line. A line of ASCII white space and decimals below
// 2^64 is read in place, in one pass. Any other line (a byte >= 0x80, a
// field that is not such a decimal, a wrong field count) goes through
// parseTraceText, which words the error.
func parseTraceLine(b []byte, line int, vals *[traceFields]uint64) (bool, error) {
	const cutoff = math.MaxUint64/10 + 1
	n := 0
	for i := 0; i < len(b); {
		if isASCIISpace(b[i]) {
			i++
			continue
		}
		if n == 0 && b[i] == '#' {
			return false, nil
		}
		if n == traceFields {
			return parseTraceText(string(b), line, vals)
		}
		var v uint64
		for ; i < len(b) && !isASCIISpace(b[i]); i++ {
			d := b[i] - '0'
			if d > 9 || v >= cutoff {
				return parseTraceText(string(b), line, vals)
			}
			w := v * 10
			if v = w + uint64(d); v < w {
				return parseTraceText(string(b), line, vals)
			}
		}
		vals[n] = v
		n++
	}
	switch n {
	case 0:
		return false, nil
	case traceFields:
		return true, nil
	}
	return parseTraceText(string(b), line, vals)
}

// parseTraceText is parseTraceLine for any text, through strings.Fields
// and strconv.ParseUint.
func parseTraceText(text string, line int, vals *[traceFields]uint64) (bool, error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "#") {
		return false, nil
	}
	parts := strings.Fields(text)
	if len(parts) != traceFields {
		return false, fmt.Errorf("workload: trace line %d has %d fields, want %d", line, len(parts), traceFields)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return false, fmt.Errorf("workload: trace line %d field %d: %w", line, i+1, err)
		}
		vals[i] = v
	}
	return true, nil
}

// isASCIISpace is unicode.IsSpace for bytes below 0x80.
func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
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
		wrapESP(s.pool, m)
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
