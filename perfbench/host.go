package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostFacts identify the machine and program a run measured. Two runs
// compare only when NProc, GOMAXPROCS and GoVersion agree (run.py's
// compare refuses otherwise); Commit and SourceDigest say which program
// each side ran.
type hostFacts struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        int    `json:"trace"`
}

func gatherHostFacts(root, workload string, seed uint64, trace int) hostFacts {
	return hostFacts{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commitOf(root),
		SourceDigest: sourceDigest(root),
		Workload:     workload,
		Seed:         seed,
		Trace:        trace,
	}
}

// commitOf is the checkout's git commit, or "none" when the checkout is
// not a git repository (the source digest then identifies the code).
// git runs only when root itself holds .git, so nothing above the
// checkout is searched.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod of the simulator
// (path and content, in path order), skipping the benchmark's own
// directory and build outputs, so two checkouts of the same code agree
// whether or not they are git repositories.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh) //nolint:errcheck // a short read changes the digest, which is the point
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
