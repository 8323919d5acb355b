package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// prov is a run's provenance: where and on what it ran.
type prov struct {
	lines []string
}

// provenance records the host fingerprint, the code under test, the
// seed and the flush, snapshot and freeze policy the binaries run with.
func provenance(h *harness, w workload, seed uint64, serve map[string]string) (prov, error) {
	var p prov
	add := func(k, v string) { p.lines = append(p.lines, fmt.Sprintf("%-12s %s", k+":", v)) }
	add("host", fmt.Sprintf("%s; nproc %d; GOMAXPROCS %d; %s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH))
	commit, digest, err := codeIdentity(h.root)
	if err != nil {
		return p, err
	}
	add("code", fmt.Sprintf("commit %s; source sha256 %s", commit, digest))
	add("run", fmt.Sprintf("workload %s; seed %d; seconds %d; trace %v", w.name, seed, h.seconds, h.trace))
	loadFlags := []string{"batch", "checkpoint-every"}
	load, err := flagDefaults(h.binPath("orfload"), loadFlags...)
	if err != nil {
		return p, err
	}
	add("policy", "orfserve defaults "+fmtFlags(serve, allServeFlags)+"; orfload defaults "+fmtFlags(load, loadFlags)+
		"; WAL group commit at the internal/wal defaults (measured as wal.records_per_fsync when traced)")
	add("load", fmt.Sprintf("paced %.0f rows/s in %d-row batches, then a closed-loop flood of %d-row batches; predict %.0f req/s x %d vectors; 1 observe + 1 predict connection",
		pacedRate, pacedBatch, floodBatch, predictRate, predictItems))
	return p, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "cpu unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "cpu unknown"
}

// codeIdentity names the code under test: the git commit when the
// checkout is a git work tree, and always a digest of the Go sources
// and module files outside the benchmark.
func codeIdentity(root string) (commit, digest string, err error) {
	commit = "none (not a git checkout)"
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		commit = ref
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				commit = strings.TrimSpace(string(b))
			} else {
				commit = r
			}
		}
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", "", err
	}
	sort.Strings(files)
	hs := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", "", err
		}
		fmt.Fprintf(hs, "%s\x00%d\x00", f, len(b))
		hs.Write(b)
	}
	return commit, hex.EncodeToString(hs.Sum(nil))[:16], nil
}

// allServeFlags are the orfserve defaults a run reads: the ones the
// oracle depends on, and the snapshot and mailbox policy the report
// states.
var allServeFlags = append([]string{"snapshot-every", "freeze-interval", "mailbox"}, serveFlags...)

// flagDefaults runs bin -h and extracts the default of each named flag
// from its usage text, so the oracle and the report follow the binary
// under test.
func flagDefaults(bin string, names ...string) (map[string]string, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 or 2 by Go version
	defs := map[string]string{}
	for _, n := range names {
		re := regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(n) + `(?: \w+)?\n[^\n]*\(default ([^)]+)\)`)
		m := re.FindSubmatch(out)
		if m == nil {
			return nil, fmt.Errorf("%s -h: no default for -%s", filepath.Base(bin), n)
		}
		defs[n] = string(m[1])
	}
	return defs, nil
}

// fmtFlags prints the named flag defaults as a command line would.
func fmtFlags(defs map[string]string, names []string) string {
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("-%s %s", n, defs[n]))
	}
	return strings.Join(parts, " ")
}

// figure is one end-to-end number of the report.
type figure struct{ name, unit, note string }

// figures lists every end-to-end number a run produces, gated or not,
// with how it was measured.
func (r *report) figures(all opCount) []figure {
	in, o := r.in, r.lv.obs
	tail := func(s summary, what string) string {
		return fmt.Sprintf("%s of n=%d %s; p50 %.3f, p90 %.3f, max %.3f", pct(s.TailQ), s.N, what, s.P50, s.P90, s.Max)
	}
	return []figure{
		{"setup_s", "s", fmt.Sprintf("median of %d launches %s", len(r.setups), fmtList(r.setups))},
		{"catchup_s", "s", fmt.Sprintf("median of %d %s", len(r.catchups), fmtList(r.catchups))},
		{"observe_cpu_ms_per_krow", "ms/krow", fmt.Sprintf("router + leader + follower CPU in the flood: %.3f s for %d rows", o.floodCPUS, o.floodRows)},
		{"backfill_cpu_ms_per_krow", "ms/krow", fmt.Sprintf("orfload user+system CPU, median of %s s", fmtList(r.loadCPU))},
		{"predict_staleness_p99", "updates", fmt.Sprintf("%s of n=%d replies; p50 %.0f", pct(r.stale.TailQ), r.stale.N, r.stale.P50)},
		{"rss_peak_mb", "MiB", map[bool]string{true: "orfload VmHWM, median of " + fmtList(r.loadRSS), false: "leader VmHWM"}[r.w.loaderPrimary]},
		{"observe_rows_per_s", "rows/s", fmt.Sprintf("median of %d flood slices; %d rows in %.3f s overall; x 86400 = %.3g drives at daily cadence on this host",
			len(o.sliceRate), o.floodRows, o.floodS, 86400*r.e2e["observe_rows_per_s"])},
		{"backfill_rows_per_s", "rows/s", fmt.Sprintf("%d rows / median orfload start-to-exit of %s s", in.historyRows, fmtList(r.loadS))},
		{"observe_p50_ms", "ms", fmt.Sprintf("paced batches from due time, n=%d; p90 %.3f", r.obs.N, r.obs.P90)},
		{"observe_p99_ms", "ms", tail(r.obs, "paced batches, from due time")},
		{"observe_flood_p99_ms", "ms", tail(r.flood, "flood batches, send to reply")},
		{"predict_p50_ms", "ms", fmt.Sprintf("paced, from due time, n=%d; p90 %.3f", r.pred.N, r.pred.P90)},
		{"predict_p99_ms", "ms", tail(r.pred, "paced predicts, from due time")},
		{"data_dir_mb", "MiB", "leader data dir after clean shutdown; moves with where the open WAL segment ends"},
		{"failed_ratio", "ratio", fmt.Sprintf("%d failed of %d attempted; 0 on a healthy run", all.failed(), all.Attempted)},
	}
}

func pct(q float64) string { return fmt.Sprintf("p%g", q*100) }

// print writes the human-readable report.
func (r *report) print(w io.Writer, p prov, res result, spec benchSpec, trace bool, histPath string) {
	for _, wl := range spec.Workloads {
		if wl.Name == r.w.name {
			fmt.Fprintf(w, "== perfbench %s: %s\n", wl.Name, wl.Why)
		}
	}
	for _, l := range p.lines {
		fmt.Fprintln(w, l)
	}
	in := r.in
	fmt.Fprintf(w, "inputs:      history %d rows in %d files (%.1f MB, %d quarters, gzip %v); live %d rows (%d paced batches, %d flood batches)\n",
		in.historyRows, len(in.historyFiles), float64(in.historyBytes)/1e6, r.w.historyQuarters, r.w.gzip,
		len(in.live), in.paced, len(in.batches)-in.paced)

	fmt.Fprintln(w, "-- end to end (a run with --trace 0 gives the gated numbers)")
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	all := r.counts()
	for _, f := range r.figures(all) {
		gate := "reported "
		if b, ok := bounds[f.name]; ok {
			gate = fmt.Sprintf("gated %2.0f%%", 100*b)
		}
		fmt.Fprintf(w, "  %-24s %14.4f %-8s %s  %s\n", f.name, r.e2e[f.name], f.unit, gate, f.note)
	}

	fmt.Fprintln(w, "-- failure accounting (no request is retried)")
	for _, oc := range []struct {
		name string
		c    opCount
	}{{"observe/batch", r.lv.obs.count}, {"predict/batch", r.lv.pred.count}} {
		b, _ := json.Marshal(oc.c)
		fmt.Fprintf(w, "  %-14s failed %d: %s\n", oc.name, oc.c.failed(), b)
	}

	fmt.Fprintln(w, "-- correctness")
	fmt.Fprintf(w, "  observe replies: %d mismatches; digest %016x, oracle %016x\n",
		r.lv.obs.mismatches, r.lv.obs.digestGot, r.lv.obs.digestWant)
	fmt.Fprintf(w, "  probes (%d models x %d vectors) and /v1/stats on leader and follower; orfload rows = %d parsed CSV rows\n",
		len(in.probes), predictItems, in.historyRows)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  correct: %v\n", res.Correct)
	fmt.Fprintf(w, "timeline:    %s\n", strings.Join(r.timeline, "; "))
	fmt.Fprintf(w, "host:        %.1f%% of CPU time stolen by other VMs during the live phase\n", r.lv.stealPct)

	if !trace {
		return
	}
	fmt.Fprintln(w, "-- per layer (m: /metrics deltas, t: harness spans) and the end-to-end metric each should move")
	for _, m := range spec.PerLayer {
		fmt.Fprintf(w, "  %-26s %16.6f %-9s %s\n", m.Name, r.layers[m.Name], m.Unit, movesFor(m.Name))
	}
	fmt.Fprintf(w, "  (orfload's own mailbox wait, last scrape before exit: %.6f s over %.0f blocked enqueues)\n",
		r.load.lastScrap.sum("engine_enqueue_wait_seconds_sum", nil), r.load.lastScrap.sum("engine_enqueue_wait_seconds_count", nil))
	for _, l := range r.breakdownLines() {
		fmt.Fprintln(w, l)
	}
	r.printOverhead(w, histPath, spec)
}

// printOverhead compares this checkout's traced and untraced runs of the
// workload so far (this run included): the cost of tracing.
func (r *report) printOverhead(w io.Writer, histPath string, spec benchSpec) {
	vals := map[bool]map[string][]float64{false: {}, true: {}}
	for name, v := range r.e2e {
		vals[true][name] = append(vals[true][name], v)
	}
	if f, err := os.Open(histPath); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var hl historyLine
			if json.Unmarshal(sc.Bytes(), &hl) != nil || hl.Workload != r.w.name {
				continue
			}
			for name, v := range hl.E2E {
				vals[hl.Trace][name] = append(vals[hl.Trace][name], v)
			}
		}
		f.Close()
	}
	fmt.Fprintf(w, "tracing overhead on %s (medians of this checkout's runs so far):\n", r.w.name)
	for _, m := range spec.EndToEnd {
		u, t := vals[false][m.Name], vals[true][m.Name]
		if len(u) == 0 {
			fmt.Fprintf(w, "  %-22s traced %.4f (n=%d); no untraced run yet\n", m.Name, median(t), len(t))
			continue
		}
		fmt.Fprintf(w, "  %-22s untraced %.4f (n=%d)  traced %.4f (n=%d)  traced/untraced %.3f\n",
			m.Name, median(u), len(u), median(t), len(t), ratio(median(t), median(u)))
	}
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}
