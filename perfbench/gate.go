package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// outcome is one checked result of a batch job: a final model, a
// rendered table, or a sweep branch, reduced to a digest.
type outcome struct {
	name   string
	digest string
	err    string // non-empty when the outcome could not be produced
}

// refsJSON holds the reference digests, recorded with -record for the
// default seed and a held-out seed.
//
//go:embed refs.json
var refsJSON []byte

// refFile is the layout of refs.json.
type refFile struct {
	// Fingerprint identifies the build and machine the digests were
	// recorded on.
	Fingerprint fingerprint `json:"fingerprint"`
	// Refs maps workload -> seed -> outcome name -> digest.
	Refs map[string]map[string]map[string]string `json:"refs"`
}

// gate counts checked outcomes and those whose digest differs from the
// seed's reference. A seed without recorded references is checked for
// self-consistency: the first digest of each outcome becomes its
// reference for the rest of the run.
type gate struct {
	want              map[string]string
	attempted, failed int
	log               io.Writer
}

func newGate(workload string, seed int64, fp fingerprint, log io.Writer) (*gate, error) {
	var rf refFile
	if err := json.Unmarshal(refsJSON, &rf); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return newGateFrom(rf, workload, seed, fp, log), nil
}

func newGateFrom(rf refFile, workload string, seed int64, fp fingerprint, log io.Writer) *gate {
	g := &gate{want: map[string]string{}, log: log}
	recorded := rf.Refs[workload][strconv.FormatInt(seed, 10)]
	for k, v := range recorded {
		g.want[k] = v
	}
	if len(recorded) == 0 {
		fmt.Fprintf(log, "gate: no recorded references for %s seed %d; checking run-to-run consistency only\n", workload, seed)
		return g
	}
	fmt.Fprintf(log, "gate: %d recorded reference digests for %s seed %d\n", len(recorded), workload, seed)
	if diff := rf.Fingerprint.differs(fp); diff != "" {
		fmt.Fprintf(log, "gate: FLAG references were recorded under a different fingerprint (%s)\n", diff)
	}
	return g
}

func (g *gate) check(outs []outcome) {
	for _, o := range outs {
		g.attempted++
		if o.err != "" {
			g.failed++
			fmt.Fprintf(g.log, "gate: FAILED %s: %s\n", o.name, o.err)
			continue
		}
		want, ok := g.want[o.name]
		if !ok {
			g.want[o.name] = o.digest
			continue
		}
		if want != o.digest {
			g.failed++
			fmt.Fprintf(g.log, "gate: MISMATCH %s: got %s, reference %s\n", o.name, o.digest, want)
		}
	}
}

// expect counts one pass/fail check that has no digest.
func (g *gate) expect(name string, ok bool) {
	g.attempted++
	if !ok {
		g.failed++
		fmt.Fprintf(g.log, "gate: FAILED %s\n", name)
	}
}

// recordRefs runs one set-up and one batch job (and, for sweep-fork, a
// cold run of every branch, which must match its warm fork) and prints
// the outcome digests as a refs.json entry.
func recordRefs(out io.Writer, workload string, seed int64, w workload, fp fingerprint) error {
	digests := map[string]string{}
	add := func(how string, outs []outcome) error {
		for _, o := range outs {
			if o.err != "" {
				return fmt.Errorf("record: %s: %s", o.name, o.err)
			}
			if prev, ok := digests[o.name]; ok && prev != o.digest {
				return fmt.Errorf("record: %s: %s gave %s, earlier %s", o.name, how, o.digest, prev)
			}
			digests[o.name] = o.digest
		}
		return nil
	}
	outs, err := w.setup()
	if err != nil {
		return err
	}
	if err := add("set-up", outs); err != nil {
		return err
	}
	it, err := w.iterate()
	if err != nil {
		return err
	}
	if err := add("batch job", it.outcomes); err != nil {
		return err
	}
	if sw, ok := w.(*sweepFork); ok {
		outs, err := sw.coldCheck(true)
		if err != nil {
			return err
		}
		if err := add("cold run", outs); err != nil {
			return err
		}
	}
	rf := refFile{Fingerprint: fp, Refs: map[string]map[string]map[string]string{
		workload: {strconv.FormatInt(seed, 10): digests},
	}}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// fingerprint identifies the build and machine behind a record.
type fingerprint struct {
	Commit     string `json:"commit"`
	Source     string `json:"source"`
	Go         string `json:"go"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

func currentFingerprint(seed int64) fingerprint {
	return fingerprint{
		Commit:     gitHead("."),
		Source:     sourceDigest("."),
		Go:         runtime.Version(),
		Arch:       runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
}

func (f fingerprint) print(w io.Writer) {
	b, _ := json.Marshal(f)
	fmt.Fprintf(w, "fingerprint: %s\n", b)
}

// differs lists the machine and toolchain fields in which two
// fingerprints differ. Commit, source and seed are left out: a reference
// digest is meant to hold across commits, and each seed has its own.
func (f fingerprint) differs(o fingerprint) string {
	var d []string
	cmp := func(name, a, b string) {
		if a != b {
			d = append(d, fmt.Sprintf("%s %q vs %q", name, a, b))
		}
	}
	cmp("go", f.Go, o.Go)
	cmp("arch", f.Arch, o.Arch)
	cmp("cpu", f.CPU, o.CPU)
	cmp("nproc", strconv.Itoa(f.NProc), strconv.Itoa(o.NProc))
	cmp("gomaxprocs", strconv.Itoa(f.GOMAXPROCS), strconv.Itoa(o.GOMAXPROCS))
	return strings.Join(d, ", ")
}

// gitHead resolves HEAD of the git repository at root, or "none" when
// root is not a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod file under root (hidden
// directories skipped), so records from a checkout without git history
// still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
