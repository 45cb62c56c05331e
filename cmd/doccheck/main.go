// Command doccheck verifies that the repository's documentation stays in
// sync with the code: every backticked file or directory path in the
// checked markdown files must exist, and every backticked command flag
// must be defined by the command it belongs to. CI runs it so drift like a
// renamed flag or a deleted file fails the build instead of rotting in the
// docs.
//
// Usage:
//
//	doccheck [-root dir] [file.md ...]
//
// With no file arguments it checks the default set: README.md, DESIGN.md,
// OBSERVABILITY.md, EXPERIMENTS.md, ROBUSTNESS.md, ROADMAP.md, ISSUE.md,
// and SERVICE.md.
//
// Checked tokens, all inside backticks:
//
//   - A single-word token containing a "/" (or ending in ".md") is a path
//     and must exist relative to the repo root. A line number
//     ("file.go:12") or an exported symbol ("math/big.Rat") after it is
//     dropped first. Wildcards ("..."), URLs, placeholders ("<file>") and
//     subtest names ("TestX/case") are skipped.
//   - A token starting with "-", or any "-flag" word inside a token whose
//     first word names a command in cmd/, must match a flag.X("name", ...)
//     declaration in that command's sources (or any command's, for bare
//     "-flag" tokens).
//
// Command lines inside fenced code blocks are checked too: a line that
// runs a command in cmd/ — "go run ./cmd/X ..." or a built panicsim
// binary ("./panicsim ...") — must use only flags that command declares.
// A trailing backslash continues a line, a "#" comment is ignored, and a
// pipeline or command list is split at |, ||, &&, & and ; so each command
// is checked against its own flags.
//
// The check also runs in reverse for the main simulator binary: every
// flag cmd/panicsim declares must appear backticked somewhere in
// README.md, so adding a flag without documenting it fails CI the same
// way documenting a removed flag does.
//
// The serve plane gets the same treatment in both directions: every
// route internal/serve registers (the route literals in
// internal/serve/handlers.go) must appear as "METHOD /path" in
// SERVICE.md, and every "### `METHOD /path`" endpoint heading in
// SERVICE.md must name a registered route — so adding, renaming, or
// deleting an endpoint without updating the API reference fails CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

var (
	backtickRe = regexp.MustCompile("`([^`]+)`")
	flagDeclRe = regexp.MustCompile(`flag\.[A-Za-z0-9]+\(\s*"([^"]+)"`)
	flagWordRe = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	// pathRefRe matches the line number or exported symbol that may
	// follow a path.
	pathRefRe = regexp.MustCompile(`(:[0-9]+|\.[A-Z][A-Za-z0-9_]*)$`)
	// shellFlagRe is a flag word on a shell command line, where Go's flag
	// package also accepts "--name" and "-name=value".
	shellFlagRe = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(=.*)?$`)
	shellSepRe  = regexp.MustCompile(`\|\|?|&&|;|\s&(\s|$)`)
	cmdPathRe   = regexp.MustCompile(`^(?:\./)?cmd/([a-z0-9]+)/?$`)
	routeDeclRe = regexp.MustCompile(`\{method:\s*"([A-Z]+)",\s*pattern:\s*"([^"]+)"`)
	routeDocRe  = regexp.MustCompile("^###+ `([A-Z]+ /[^`]*)`")

	// goToolFlags are flags of the go tool itself (`go test -race`, ...)
	// that legitimately appear backticked in the docs but are not declared
	// by any command in cmd/.
	goToolFlags = map[string]bool{
		"race": true, "short": true, "bench": true, "benchmem": true,
		"benchtime": true, "run": true, "v": true, "cover": true,
		"fuzz": true, "fuzztime": true,
	}
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		files = []string{"README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md", "ROBUSTNESS.md", "ROADMAP.md", "ISSUE.md", "SERVICE.md"}
	}

	cmdFlags, err := collectFlags(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	allFlags := make(map[string]bool)
	for _, set := range cmdFlags {
		for f := range set {
			allFlags[f] = true
		}
	}

	bad := 0
	readmeFlags := make(map[string]bool)
	for _, md := range files {
		data, err := os.ReadFile(filepath.Join(*root, md))
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			bad++
			continue
		}
		lines := strings.Split(string(data), "\n")
		for _, problem := range checkFenced(md, lines, cmdFlags) {
			fmt.Fprintln(os.Stderr, problem)
			bad++
		}
		for i, line := range lines {
			for _, m := range backtickRe.FindAllStringSubmatch(line, -1) {
				if md == "README.md" {
					for _, w := range strings.Fields(m[1]) {
						if flagWordRe.MatchString(w) {
							readmeFlags[strings.TrimPrefix(w, "-")] = true
						}
					}
				}
				for _, problem := range checkToken(*root, m[1], cmdFlags, allFlags) {
					fmt.Fprintf(os.Stderr, "%s:%d: %s\n", md, i+1, problem)
					bad++
				}
			}
		}
	}

	// Reverse check: every flag the main simulator declares must be
	// documented (backticked) somewhere in README.md.
	if checksFile(files, "README.md") {
		for f := range cmdFlags["panicsim"] {
			if !readmeFlags[f] {
				fmt.Fprintf(os.Stderr, "README.md: cmd/panicsim flag `-%s` is not documented\n", f)
				bad++
			}
		}
	}
	// Route check, both directions: every registered serve route must be
	// documented in SERVICE.md, and every endpoint heading in SERVICE.md
	// must name a registered route.
	if checksFile(files, "SERVICE.md") {
		bad += checkRoutes(*root)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
}

// checkFenced checks the flag words of every command line inside the
// file's fenced code blocks that runs a command in cmd/ against that
// command's declared flags, and returns the problems found.
func checkFenced(md string, lines []string, cmdFlags map[string]map[string]bool) []string {
	var problems []string
	fenced := false
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			continue
		}
		at := i + 1
		for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + strings.TrimSpace(lines[i])
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if j := strings.Index(line, " #"); j >= 0 {
			line = line[:j]
		}
		for _, seg := range shellSepRe.Split(line, -1) {
			name, args := commandOf(strings.Fields(seg), cmdFlags)
			if name == "" {
				continue
			}
			for _, w := range args {
				m := shellFlagRe.FindStringSubmatch(w)
				if m != nil && !cmdFlags[name][m[1]] {
					problems = append(problems, fmt.Sprintf("%s:%d: flag `%s` not defined by cmd/%s", md, at, w, name))
				}
			}
		}
	}
	return problems
}

// commandOf recognizes a shell command that runs a command in cmd/: "go
// run [build flags] ./cmd/X args..." or a panicsim binary ("panicsim",
// "./panicsim", "/tmp/panicsim"), after any "$" prompt and VAR=value
// prefixes. It returns the command's name and its arguments, or "" when
// the words run something else.
func commandOf(words []string, cmdFlags map[string]map[string]bool) (string, []string) {
	for len(words) > 0 && (words[0] == "$" || strings.Contains(words[0], "=")) {
		words = words[1:]
	}
	if len(words) == 0 {
		return "", nil
	}
	if filepath.Base(words[0]) == "panicsim" {
		return "panicsim", words[1:]
	}
	if len(words) < 3 || words[0] != "go" || words[1] != "run" {
		return "", nil
	}
	k := 2
	for k < len(words) && strings.HasPrefix(words[k], "-") {
		k++ // build flags of `go run`
	}
	if k == len(words) {
		return "", nil
	}
	m := cmdPathRe.FindStringSubmatch(words[k])
	if m == nil || cmdFlags[m[1]] == nil {
		return "", nil
	}
	return m[1], words[k+1:]
}

// checkRoutes cross-checks the serve plane's route table (the one-line
// route literals in internal/serve/handlers.go) against SERVICE.md and
// returns the number of problems found.
func checkRoutes(root string) int {
	src, err := os.ReadFile(filepath.Join(root, "internal", "serve", "handlers.go"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	doc, err := os.ReadFile(filepath.Join(root, "SERVICE.md"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	declared := make(map[string]bool)
	for _, m := range routeDeclRe.FindAllStringSubmatch(string(src), -1) {
		declared[m[1]+" "+m[2]] = true
	}
	bad := 0
	if len(declared) == 0 {
		fmt.Fprintln(os.Stderr, "doccheck: no route literals found in internal/serve/handlers.go")
		bad++
	}
	for route := range declared {
		if !strings.Contains(string(doc), route) {
			fmt.Fprintf(os.Stderr, "SERVICE.md: serve route `%s` is not documented\n", route)
			bad++
		}
	}
	for i, line := range strings.Split(string(doc), "\n") {
		m := routeDocRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if !declared[m[1]] {
			fmt.Fprintf(os.Stderr, "SERVICE.md:%d: documented route `%s` is not registered in internal/serve/handlers.go\n", i+1, m[1])
			bad++
		}
	}
	return bad
}

// checksFile reports whether name is in the checked-file list.
func checksFile(files []string, name string) bool {
	for _, f := range files {
		if f == name {
			return true
		}
	}
	return false
}

// collectFlags maps each command under cmd/ to the set of flag names its
// sources declare.
func collectFlags(root string) (map[string]map[string]bool, error) {
	out := make(map[string]map[string]bool)
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		set := make(map[string]bool)
		srcs, _ := filepath.Glob(filepath.Join(root, "cmd", e.Name(), "*.go"))
		for _, src := range srcs {
			data, err := os.ReadFile(src)
			if err != nil {
				return nil, err
			}
			for _, m := range flagDeclRe.FindAllStringSubmatch(string(data), -1) {
				set[m[1]] = true
			}
		}
		out[e.Name()] = set
	}
	return out, nil
}

// checkToken validates one backticked token and returns the problems found.
func checkToken(root, tok string, cmdFlags map[string]map[string]bool, allFlags map[string]bool) []string {
	var problems []string
	words := strings.Fields(tok)
	if len(words) == 0 {
		return nil
	}

	// Path check: single-word tokens that look like repo paths. Absolute
	// paths point outside the repository and are not checked, and a word
	// that starts with Test and holds a slash is a subtest name.
	if len(words) == 1 {
		w := words[0]
		subtest := strings.HasPrefix(w, "Test") && strings.Contains(w, "/") &&
			!strings.HasSuffix(w, ".md")
		isPath := (strings.Contains(w, "/") || strings.HasSuffix(w, ".md")) &&
			!strings.HasPrefix(w, "/") && !subtest &&
			!strings.Contains(w, "...") && !strings.Contains(w, "://") &&
			!strings.ContainsAny(w, "<>*|$")
		if isPath {
			p := pathRefRe.ReplaceAllString(w, "")
			if _, err := os.Stat(filepath.Join(root, p)); err != nil {
				// Go standard-library packages (`container/heap`, ...) read
				// like repo paths; resolve them against GOROOT/src.
				if _, gerr := os.Stat(filepath.Join(runtime.GOROOT(), "src", p)); gerr != nil {
					problems = append(problems, fmt.Sprintf("path `%s` does not exist", w))
				}
			}
			return problems
		}
	}

	// Flag check: bare `-flag` tokens check against every command's flags;
	// `-flag` words inside a `somecmd ...` token check that command's.
	scope := allFlags
	scopeName := "any command"
	if set, ok := cmdFlags[words[0]]; ok {
		scope = set
		scopeName = "cmd/" + words[0]
	} else if !strings.HasPrefix(words[0], "-") {
		return problems // not a flag context (e.g. `go vet ./...`)
	}
	for _, w := range words {
		if !flagWordRe.MatchString(w) {
			continue
		}
		name := strings.TrimPrefix(w, "-")
		if scope[name] {
			continue
		}
		if scopeName == "any command" && goToolFlags[name] {
			continue // `go test -race` etc., not a cmd/ flag
		}
		problems = append(problems, fmt.Sprintf("flag `%s` not defined by %s", w, scopeName))
	}
	return problems
}
