package invariant

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/sim"
)

// tick is a minimal ticker that keeps the kernel busy every cycle.
type tick struct{ n uint64 }

func (t *tick) Tick(uint64) { t.n++ }

// idle is a fully quiescent component: it never has work, so the kernel
// may skip any cycle no event claims.
type idle struct{}

func (idle) Tick(uint64)            {}
func (idle) EndCycle(uint64) uint64 { return sim.WakeNever }
func (idle) SyncTo(uint64)          {}

// TestSamplingCadence checks that checks run once per interval, at the
// interval boundary, and that RunNow is unthrottled.
func TestSamplingCadence(t *testing.T) {
	k := sim.NewKernel(sim.Frequency(500e6))
	k.Register(&tick{})
	m := New(Config{Every: 10})
	var cycles []uint64
	m.AddCheck("probe", func(c uint64) error {
		cycles = append(cycles, c)
		return nil
	})
	m.Attach(k)
	k.Run(25)
	want := []uint64{0, 10, 20}
	if fmt.Sprint(cycles) != fmt.Sprint(want) {
		t.Fatalf("check cycles = %v, want %v", cycles, want)
	}
	if m.Passes() != 3 {
		t.Fatalf("passes = %d, want 3", m.Passes())
	}
	m.RunNow(25)
	if m.Passes() != 4 {
		t.Fatalf("RunNow did not run a pass")
	}
}

// TestFastForwardStepsDueCheck checks the sampling schedule across idle
// jumps: the monitor's Due registration clamps them
// so a due pass lands on exactly the interval cycle — the kernel steps
// cycle 64 (a provably idle cycle, so nothing else happens in it) instead
// of jumping from 5 straight to 97 and deferring the pass.
func TestFastForwardStepsDueCheck(t *testing.T) {
	k := sim.NewKernel(sim.Frequency(500e6))
	// Event-only load on a quiescent component: the kernel jumps between
	// events, stepping only the cycles they claim — plus, now, the cycles
	// the monitor's schedule claims.
	k.Register(idle{})
	for _, at := range []uint64{0, 5, 97, 130} {
		k.At(at, func() {})
	}
	m := New(Config{Every: 64})
	var cycles []uint64
	m.AddCheck("probe", func(c uint64) error {
		cycles = append(cycles, c)
		return nil
	})
	m.Attach(k)
	k.Run(200)
	want := []uint64{0, 64, 128, 192}
	if fmt.Sprint(cycles) != fmt.Sprint(want) {
		t.Fatalf("check cycles = %v, want %v", cycles, want)
	}
}

// TestViolationCaptureAndCap checks recording, the retention cap, and the
// Err summary.
func TestViolationCaptureAndCap(t *testing.T) {
	m := New(Config{Every: 1})
	boom := errors.New("ledger off by one")
	m.AddCheck("ok", func(uint64) error { return nil })
	m.AddCheck("bad", func(uint64) error { return boom })
	for c := uint64(0); c < 40; c++ {
		m.RunNow(c)
	}
	if m.Total() != 40 {
		t.Fatalf("total = %d, want 40", m.Total())
	}
	if len(m.Violations()) != maxViolations {
		t.Fatalf("retained = %d, want cap %d", len(m.Violations()), maxViolations)
	}
	v := m.Violations()[0]
	if v.Cycle != 0 || v.Check != "bad" || !errors.Is(v.Err, boom) {
		t.Fatalf("first violation = %+v", v)
	}
	err := m.Err()
	if err == nil || !strings.Contains(err.Error(), "40 violation(s)") || !strings.Contains(err.Error(), "ledger off by one") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestErrNilWhenClean checks the healthy path.
func TestErrNilWhenClean(t *testing.T) {
	m := New(Config{})
	m.AddCheck("ok", func(uint64) error { return nil })
	m.RunNow(0)
	if err := m.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
	if m.every != DefaultEvery {
		t.Fatalf("default interval = %d, want %d", m.every, DefaultEvery)
	}
}

// TestFailFastPanics checks the interactive debugging mode.
func TestFailFastPanics(t *testing.T) {
	m := New(Config{FailFast: true})
	m.AddCheck("bad", func(uint64) error { return errors.New("boom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic in FailFast mode")
		}
	}()
	m.RunNow(7)
}

// TestStepZeroAllocs is the monitor's overhead gate at the kernel level:
// with no monitor attached the per-cycle step must not allocate, and with
// a monitor attached (alloc-free checks) it still must not — neither on
// the cheap off-interval rejection nor on the check passes themselves.
func TestStepZeroAllocs(t *testing.T) {
	measure := func(arm bool) float64 {
		k := sim.NewKernel(sim.Frequency(500e6))
		k.Register(&tick{})
		if arm {
			m := New(Config{Every: 8})
			m.AddCheck("noop", func(uint64) error { return nil })
			m.Attach(k)
		}
		k.Run(64) // warm up internal buffers
		return testing.AllocsPerRun(200, func() { k.Run(1) })
	}
	if got := measure(false); got != 0 {
		t.Errorf("unmonitored kernel step allocates %.1f/op, want 0", got)
	}
	if got := measure(true); got != 0 {
		t.Errorf("monitored kernel step allocates %.1f/op, want 0", got)
	}
}
