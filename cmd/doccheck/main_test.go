package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFenced: command lines in fenced blocks that run a cmd/ command
// are checked against that command's flags, through continuations, env
// prefixes, prompts and pipelines; other lines and prose are not.
func TestCheckFenced(t *testing.T) {
	flags := map[string]map[string]bool{
		"trafficgen": {"mode": true, "cycles": true, "out": true},
		"panicsim":   {"fleet": true, "listen": true, "trace": true},
	}
	doc := strings.Split("go run ./cmd/trafficgen -record x\n"+
		"```sh\n"+
		"go run ./cmd/trafficgen -record -out batch.trace   # -also-ignored\n"+
		"go run ./cmd/trafficgen -mode generate -out x | curl -s -X POST localhost/x\n"+
		"GOMAXPROCS=1 go run -race ./cmd/panicsim -bogus 1\n"+
		"./panicsim -fleet 4 \\\n"+
		"  -nope 3\n"+
		"$ /tmp/panicsim serve -listen :1 --trace=x.json && go test -short ./...\n"+
		"# go run ./cmd/panicsim -commented\n"+
		"```\n"+
		"./panicsim -outside-fence\n", "\n")
	got := strings.Join(checkFenced("X.md", doc, flags), "\n")
	want := strings.Join([]string{
		"X.md:3: flag `-record` not defined by cmd/trafficgen",
		"X.md:5: flag `-bogus` not defined by cmd/panicsim",
		"X.md:6: flag `-nope` not defined by cmd/panicsim",
	}, "\n")
	if got != want {
		t.Errorf("problems:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckTokenSubtestName: a backticked subtest name contains a slash but
// is not a path, while a missing path still fails, also one whose name
// starts with Test.
func TestCheckTokenSubtestName(t *testing.T) {
	root := t.TempDir()
	for tok, want := range map[string]string{
		"TestFlowCacheUncacheable/opfunc":          "",
		"TestNICSummaryAccountsForEveryFrame/bulk": "",
		"internal/nope/flowcache.go":               "path `internal/nope/flowcache.go` does not exist",
		"TestMissing.md":                           "path `TestMissing.md` does not exist",
		"TestDocs/missing.md":                      "path `TestDocs/missing.md` does not exist",
	} {
		got := strings.Join(checkToken(root, tok, nil, nil), "\n")
		if got != want {
			t.Errorf("checkToken(%q) = %q, want %q", tok, got, want)
		}
	}
}

// TestCheckTokenPathReference: a line number or an exported symbol after
// a path names a place in it; the path itself must still exist.
func TestCheckTokenPathReference(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal/core"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal/core/nic.go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for tok, want := range map[string]string{
		"internal/core/nic.go:448": "",
		"internal/core.NIC":        "",
		"math/big.Rat":             "",
		"internal/core/gone.go:12": "path `internal/core/gone.go:12` does not exist",
		"internal/gone.NIC":        "path `internal/gone.NIC` does not exist",
		"math/nope.Rat":            "path `math/nope.Rat` does not exist",
	} {
		got := strings.Join(checkToken(root, tok, nil, nil), "\n")
		if got != want {
			t.Errorf("checkToken(%q) = %q, want %q", tok, got, want)
		}
	}
}

// TestCheckTestName: a backticked Test, Benchmark or Fuzz name must be
// declared in a _test.go outside hidden directories; a subtest checks its
// top-level name, and a trailing "*" matches a declared prefix.
func TestCheckTestName(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"x/a_test.go":       "package x\n\nfunc TestPaperVerdicts(t *testing.T) {}\n\nfunc BenchmarkFig2aPipelineHOL(b *testing.B) {}\n",
		"x/a.go":            "package x\n\nfunc TestInNonTestFile() {}\n",
		".hidden/b_test.go": "package y\n\nfunc TestHidden(t *testing.T) {}\n",
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tests, err := collectTests(root)
	if err != nil {
		t.Fatal(err)
	}
	for tok, want := range map[string]string{
		"TestPaperVerdicts":        "",
		"TestPaperVerdicts/Table3": "",
		"BenchmarkFig2a*":          "",
		"Testing":                  "",
		"go test -run TestNope":    "",
		"TestPanicEndToEnd":        "test `TestPanicEndToEnd` is not declared in any _test.go",
		"TestNope/case":            "test `TestNope/case` is not declared in any _test.go",
		"FuzzNope*":                "test `FuzzNope*` is not declared in any _test.go",
		"TestInNonTestFile":        "test `TestInNonTestFile` is not declared in any _test.go",
		"TestHidden":               "test `TestHidden` is not declared in any _test.go",
	} {
		got := strings.Join(checkTestName(tok, tests), "\n")
		if got != want {
			t.Errorf("checkTestName(%q) = %q, want %q", tok, got, want)
		}
	}
}
