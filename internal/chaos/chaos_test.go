package chaos

import (
	"errors"
	"strings"
	"testing"
)

// TestGenerateDeterministic checks the seed contract: same seed and
// horizon, same scenario, rendered byte-identically.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a := Generate(seed, 20_000)
		b := Generate(seed, 20_000)
		if a.String() != b.String() {
			t.Fatalf("seed %d: generation not deterministic:\n%s\nvs\n%s", seed, a.String(), b.String())
		}
		if err := a.validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
	}
}

// TestScenarioRoundTrip checks that the replay file format is the exact
// inverse of String for generated scenarios — what a shrunk reproducer
// depends on.
func TestScenarioRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s := Generate(seed, 20_000)
		s.Plant = seed%2 == 0
		got, err := ParseScenario(strings.NewReader(s.String()))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, s.String())
		}
		if got.String() != s.String() {
			t.Fatalf("seed %d: round trip mismatch:\n%s\nvs\n%s", seed, s.String(), got.String())
		}
	}
}

// TestParseScenarioErrors checks malformed files are rejected with line
// numbers, including plan-section lines re-based onto the file.
func TestParseScenarioErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"bogus 1\n", "line 1"},
		{"seed x\n", "bad seed value"},
		{"seed 1\ncycles 20000\ntenants 1\nrequests 10\nqueuecap 64\nreplicas 1\nplan:\nat 5 explode 34\n", "line 8"},
		{"seed 1\ncycles 20000\nworkers 2\nplan:\n", `line 3: unknown key "workers"`},
		{"seed 1\ncycles 20000\nheapq true\nplan:\n", `line 3: unknown key "heapq"`},
		{"seed 1\ncycles 10\nplan:\n", "cycles 10 too short"},
	} {
		_, err := ParseScenario(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("input %q: error = %v, want mention of %q", tc.in, err, tc.want)
		}
	}
}

// TestParseScenarioRejectsRetiredKey: a replay file naming the retired
// fastforward knob fails with a structured error carrying the key and its
// line, rather than as an unknown key.
func TestParseScenarioRejectsRetiredKey(t *testing.T) {
	_, err := ParseScenario(strings.NewReader("seed 1\ncycles 20000\nfastforward true\nplan:\n"))
	var re *RetiredKeyError
	if !errors.As(err, &re) || re.Key != "fastforward" || re.Line != 3 {
		t.Fatalf("error = %v, want a RetiredKeyError for fastforward on line 3", err)
	}
	if !strings.Contains(err.Error(), `line 3: key "fastforward" is retired`) {
		t.Errorf("error text %q does not name the key and line", err)
	}
}

// TestRunCleanSeeds is the in-tree slice of the nightly soak: a handful of
// generated scenarios must hold every invariant. (cmd/chaos runs the wide
// version; CI's nightly job runs 500 seeds.)
func TestRunCleanSeeds(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		s := Generate(seed, 20_000)
		if f := Run(s); f != nil {
			t.Errorf("seed %d: %s\nscenario:\n%s", seed, f, s.String())
		}
	}
}

// TestPlantedBugCaughtAndShrunk is the harness's acceptance self-test: the
// deliberately planted flow-cache invalidation-skip bug (skipping
// invalidation on RewriteEngineTenant) must be caught by the coherence
// invariant and shrunk to a reproducer whose fault plan is at most 5
// lines. Seed 5 is the first catching seed; the shrink must also strip
// the incidental scenario dimensions.
func TestPlantedBugCaughtAndShrunk(t *testing.T) {
	s := Generate(5, 20_000)
	s.Plant = true
	fail := Run(s)
	if fail == nil {
		t.Fatalf("planted bug not caught:\n%s", s.String())
	}
	if fail.Check != "flow-cache-coherence" {
		t.Fatalf("caught by %q, want flow-cache-coherence (%v)", fail.Check, fail.Err)
	}

	shrunk, runs := Shrink(s, fail, 40)
	if runs > 40 {
		t.Errorf("shrinker overspent its budget: %d runs", runs)
	}
	if got := len(shrunk.Plan.Events); got > 5 {
		t.Errorf("shrunk plan has %d events, want <= 5:\n%s", got, shrunk.Plan.String())
	}
	// The reproducer still fails the same check...
	again := Run(shrunk)
	if again == nil || again.Check != fail.Check {
		t.Fatalf("shrunk scenario does not reproduce: %v\n%s", again, shrunk.String())
	}
	// ...and survives the file round trip, so the artifact CI uploads
	// replays as-is.
	rt, err := ParseScenario(strings.NewReader(shrunk.String()))
	if err != nil {
		t.Fatalf("reproducer does not re-parse: %v\n%s", err, shrunk.String())
	}
	if f := Run(rt); f == nil || f.Check != fail.Check {
		t.Fatalf("re-parsed reproducer does not reproduce: %v", f)
	}
}

// TestRunRecoversPanics checks that a crashing scenario surfaces as a
// Failure (so the shrinker can minimize crashes, not just violations)
// rather than taking down the harness.
func TestRunRecoversPanics(t *testing.T) {
	s := Generate(0, 20_000)
	s.Replicas = 9 // NewNIC rejects > 5 with a panic
	if err := s.validate(); err == nil {
		t.Fatal("validate accepted 9 replicas")
	}
	f := Run(s)
	if f == nil || f.Check != "panic" {
		t.Fatalf("crashing scenario produced %v, want a panic Failure", f)
	}
}
