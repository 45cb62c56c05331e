package workload

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

// referenceReadTrace is ReadTrace as it was before fields were parsed in
// place and range-checked: strings.Fields over each line, strconv.ParseUint
// per field, values truncated to their record fields.
func referenceReadTrace(r io.Reader) ([]TraceRecord, error) {
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

// referenceFieldMax bounds each field by its TraceRecord type (WAN is a
// flag), written out apart from the parser's own table.
var referenceFieldMax = [traceFields]uint64{1<<64 - 1, 1<<16 - 1, 1<<8 - 1, 1<<8 - 1, 1<<64 - 1, 1<<32 - 1, 1, 1<<8 - 1}

// firstRangeFault finds, the way the reference tokenizes, the first line
// whose fields all parse but one of which exceeds its type, and returns
// that line and field (1-based). It gives up, returning 0, at the first
// line the reference cannot tokenize or parse.
func firstRangeFault(data []byte) (line, field int) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Fields(text)
		if len(parts) != traceFields {
			return 0, 0
		}
		var vals [traceFields]uint64
		for i, p := range parts {
			v, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				return 0, 0
			}
			vals[i] = v
		}
		for i, v := range vals {
			if v > referenceFieldMax[i] {
				return n, i + 1
			}
		}
	}
	return 0, 0
}

// linesBefore returns the input up to the start of the given 1-based line,
// splitting lines where bufio.ScanLines does.
func linesBefore(data []byte, line int) []byte {
	end := 0
	for i := 1; i < line; i++ {
		end += bytes.IndexByte(data[end:], '\n') + 1
	}
	return data[:end]
}

// FuzzReadTrace holds ReadTrace to referenceReadTrace: the same records
// or the same error for every input, except that a field out of its
// type's range, which the reference truncated, is now an error at that
// line and field — when the reference reads every line before it.
func FuzzReadTrace(f *testing.F) {
	ok := "0 1 1 1 42 0 0 0\n10 1 1 3 43 128 1 2\n"
	for _, seed := range []string{
		ok,
		"0 1 1 1 42 0 0 0\r\n10 1 1 3 43 128 1 2\r\n",
		"0\t1\t1\t1\t42\t0\t0\t0\n",
		"0\v1\f1 1 42 0 0 0\n",
		"0\u00851 1 1 42 0 0 0\n",
		"0\u00a01 1 1 42\u00a00 0 0\n",
		"\u00a0 0 1 1 1 42 0 0 0 \u0085\n",
		"0 +1 1 1 42 0 0 0\n",
		"0 -1 1 1 42 0 0 0\n",
		"0007 0001 01 001 00000000000000000000042 0 00 0\n",
		"18446744073709551615 1 1 1 18446744073709551615 0 0 0\n",
		"18446744073709551616 1 1 1 0 0 0 0\n",
		"0 1 1 1 18446744073709551616 0 0 0\n",
		"0 1 1 1 99999999999999999999 0 0 0\n",
		"0 1 1 1 000018446744073709551615 0 0 0\n",
		"# cycle tenant class op key valueLen wan clientNet\n  # indented\n" + ok,
		"0 1 1 1 42 0 0 0 # trailing note\n",
		"0 1 1 1 42 0 0#0\n",
		"\n\n   \n\t\n" + ok + "\n",
		"0 1 1 1 42 0 0\n",
		"0 1 1 1 42 0 0 0 0\n",
		"10 1 1 1 42 0 0 0\n9 1 1 1 42 0 0 0\n",
		"100 65537 256 257 5 4294967297 7 300\n",
		"0 1 1 9 42 0 0 0\n0 65536 1 1 42 0 0 0\n",
		"0 1 1 265 42 0 0 0\n",
		"0 1 1 1 42 0 2 0\n",
		"0 1 1 1 4x2 0 0 0\n",
		"0 1 1 1 42 0 0 0\xff\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkReadTrace)
}

// TestReadTraceLongLines runs FuzzReadTrace's check on lines around the
// scanner's 64 KiB token limit. They are not fuzz seeds: mutating inputs
// this long stalls the coverage-guided run within seconds.
func TestReadTraceLongLines(t *testing.T) {
	ok := "0 1 1 1 42 0 0 0\n"
	for _, n := range []int{bufio.MaxScanTokenSize - 1, bufio.MaxScanTokenSize, bufio.MaxScanTokenSize + 1, 70 << 10} {
		pad := strings.Repeat(" ", n-len(ok)+1)
		checkReadTrace(t, []byte(ok+"#"+strings.Repeat("x", n-1)+"\n"+ok))
		checkReadTrace(t, []byte(ok+pad+strings.TrimSuffix(ok, "\n")+"\n"))
		checkReadTrace(t, []byte(ok+"0 65536 1 1 42 0 0 0"+pad+"\n"))
	}
}

// checkReadTrace is FuzzReadTrace's property for one input.
func checkReadTrace(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadTrace(bytes.NewReader(data))
	want, wantErr := referenceReadTrace(bytes.NewReader(data))
	if line, field := firstRangeFault(data); line > 0 {
		if _, perr := referenceReadTrace(bytes.NewReader(linesBefore(data, line))); perr == nil {
			prefix := fmt.Sprintf("workload: trace line %d field %d: ", line, field)
			if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("%q: got %d records, error %v; want a range error at line %d field %d", data, len(got), err, line, field)
			}
			return
		}
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: error %v, reference %v", data, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d records, reference %d", data, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q: record %d = %+v, reference %+v", data, i, got[i], want[i])
		}
	}
}
