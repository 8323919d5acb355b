// Command perfbench is orfdisk's end-to-end benchmark. It builds nothing
// itself (perfbench/run.sh builds the binaries under test from the
// checkout first), generates a fleet stream from a seed, drives the real
// orfload, orfserve and orfrouter processes with it, checks every output
// against an in-process oracle, and prints the metrics BENCHMARK.json
// names. See perfbench/README.md.
//
//	bash perfbench/run.sh --workload fleet-day --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; the lines before it are a human-readable report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// harness holds one run's settings and the processes it started.
type harness struct {
	root, bin, work string
	seconds         int
	trace           bool
	procs           procs
	ctl             *http.Client // readiness polls, scrapes and checks; not load
	serve           serveDefaults
}

func (h *harness) binPath(name string) string { return filepath.Join(h.bin, name) }

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root (holds BENCHMARK.json)")
		bin      = flag.String("bin", "", "directory holding the built orfserve, orfrouter, orfload and orfgen")
		work     = flag.String("work", "", "working directory for data dirs, inputs and logs (emptied first)")
		name     = flag.String("workload", "", "workload: fleet-day, backfill or restart")
		seed     = flag.Uint64("seed", 1, "input seed; the processes under test only see generated inputs")
		seconds  = flag.Int("seconds", 10, "live-phase length in seconds (sizes the stream)")
		traceArg = flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	if err := run(*root, *bin, *work, *name, *seed, *seconds, *traceArg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, bin, work, name string, seed uint64, seconds, traceArg int) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if bin == "" || work == "" || seconds < 1 || (traceArg != 0 && traceArg != 1) {
		return errors.New("need -bin, -work, --seconds >= 1 and --trace 0 or 1")
	}
	specRaw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(specRaw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}

	h := &harness{root: root, bin: bin, work: work, seconds: seconds, trace: traceArg == 1, ctl: newClient()}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer h.procs.killAll()

	serveDefs, err := flagDefaults(h.binPath("orfserve"), allServeFlags...)
	if err != nil {
		return err
	}
	if h.serve, err = parseServeDefaults(serveDefs); err != nil {
		return err
	}
	prov, err := provenance(h, w, seed, serveDefs)
	if err != nil {
		return err
	}
	rep, err := h.runWorkload(ctx, w, seed)
	if err != nil && !errors.Is(err, errMismatch) {
		return err
	}
	res := rep.result(spec, h.trace)
	// The workloads are sized so that no request fails: a failed request
	// means the program under test is broken, and its latency and
	// staleness figures would only describe the requests that got through.
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%d of %d requests failed; a healthy run fails none (see the failure accounting)", res.Failed, res.Attempted)
	}
	if err != nil {
		res.Correct = false
		rep.notes = append(rep.notes, "CORRECTNESS FAILURE: "+err.Error())
	}
	if err := checkMetrics(res, spec, h.trace); err != nil {
		return err
	}
	hist := filepath.Join(filepath.Dir(work), "results.jsonl")
	rep.print(os.Stdout, prov, res, spec, h.trace, hist)
	if err := appendHistory(hist, w.name, h.trace, seed, rep.e2e); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("the run failed its correctness checks; see the report above")
	}
	return os.RemoveAll(work)
}

// checkMetrics makes sure the run reports exactly the metrics
// BENCHMARK.json names for its mode, with valid names and finite values.
func checkMetrics(res result, spec benchSpec, trace bool) error {
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("run produced %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s missing from the run", m.Name)
		}
		if !validName(m.Name) {
			return fmt.Errorf("invalid metric name %q", m.Name)
		}
		if v.Value != v.Value || v.Value > 1e300 || v.Value < -1e300 {
			return fmt.Errorf("metric %s is not finite: %v", m.Name, v.Value)
		}
	}
	return nil
}

// appendHistory records the run's end-to-end numbers next to the work
// directory, so a traced run can print the tracing overhead as traced
// against untraced medians.
func appendHistory(path, workload string, trace bool, seed uint64, e2e map[string]float64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(historyLine{Workload: workload, Trace: trace, Seed: seed, E2E: e2e})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type historyLine struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Seed     uint64             `json:"seed"`
	E2E      map[string]float64 `json:"e2e"`
}
