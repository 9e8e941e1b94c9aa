package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runContext identifies a run: its inputs, the code and the machine.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Statements int    `json:"statements"`
	Traced     bool   `json:"traced"`
	// Commit is the git HEAD when the checkout is a repository; Source
	// hashes the Go sources and go.mod files, so runs of one tree
	// match even outside git.
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Start      string `json:"start"`
}

func newRunContext(name string, seed int64, seconds, n int, traced bool) runContext {
	return runContext{
		Workload: name, Seed: seed, Seconds: seconds, Statements: n, Traced: traced,
		Commit: gitHead("."), Source: sourceHash("."),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel(),
		GoVersion: runtime.Version(), Start: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitHead resolves .git/HEAD without running git; "" outside a
// repository.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return ""
}

// sourceHash hashes every .go and go.mod file under root, skipping
// hidden directories.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel is the first model name in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// benchDir holds what runs leave behind: fingerprints, the ledger and
// span files. The repository ignores it.
const benchDir = ".bench_build"

// compareFingerprint stores the first fingerprint seen for a workload,
// seed and length, and flags the workload as nondeterministic when a
// later run's differs. A differing fingerprint means the runs did
// different work, so their timings are not comparable.
func compareFingerprint(name string, seed int64, n int, fp fingerprint) {
	path := filepath.Join(benchDir, "fingerprints", fmt.Sprintf("%s-seed%d-n%d.json", name, seed, n))
	if b, err := os.ReadFile(path); err == nil {
		var prev fingerprint
		if json.Unmarshal(b, &prev) == nil && !prev.equal(fp) {
			fmt.Printf("nondeterministic %s: seed %d ran %+v before, %+v now\n", name, seed, prev, fp)
		}
		return
	}
	b, err := json.Marshal(fp)
	if err != nil {
		return
	}
	if os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		os.WriteFile(path, b, 0o644)
	}
}

// appendLedger appends the run's context and result to the ledger,
// one JSON object per line, keyed by commit and machine.
func appendLedger(ctx runContext, out result) {
	b, err := json.Marshal(struct {
		Context runContext `json:"context"`
		Result  result     `json:"result"`
	}{ctx, out})
	if err != nil || os.MkdirAll(benchDir, 0o755) != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(benchDir, "ledger.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write(append(b, '\n'))
	f.Close()
}
