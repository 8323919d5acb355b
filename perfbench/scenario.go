package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// report is everything one run measured, for the JSON result and the
// human-readable report.
type report struct {
	w        workload
	in       *inputs
	load     loadResult // the last orfload run
	loadS    []float64  // wall time of every orfload run
	loadCPU  []float64  // CPU time of every orfload run
	loadRSS  []float64  // peak RSS of every orfload run
	setups   []float64
	catchups []float64
	last     launchTimes // the launch whose cluster was verified
	lv       liveResult
	rssMiB   float64
	dataMiB  float64
	e2e      map[string]float64
	obs      summary // paced observe latency, ms
	flood    summary // flood observe latency, ms
	pred     summary // paced predict latency, ms
	stale    summary // updates_behind of predict replies
	late     summary // paced schedule lateness, ms
	layers   map[string]float64
	probe    seedScrapes // traced runs: a follower seeded after the live stream
	spans    spanTimes
	notes    []string
	timeline []string // wall time of each step of the run
}

// step records how long a step of the run took, for the report.
func (r *report) step(name string, start time.Time) {
	r.timeline = append(r.timeline, fmt.Sprintf("%s %.2fs", name, since(start)))
}

// runWorkload runs one workload end to end. A correctness failure is
// returned wrapped in errMismatch together with what was measured.
func (h *harness) runWorkload(ctx context.Context, w workload, seed uint64) (*report, error) {
	rep := &report{w: w}
	t := time.Now()
	in, err := genInputs(ctx, h, w, seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	rep.in = in
	rep.step("inputs", t)

	// Load the history several times into fresh directories; the last
	// one is the bootstrap the cluster starts from.
	t = time.Now()
	var bootDir string
	for i := 0; i < loads; i++ {
		if bootDir != "" {
			if err := os.RemoveAll(bootDir); err != nil {
				return rep, err
			}
		}
		bootDir = filepath.Join(h.work, "boot-"+strconv.Itoa(i))
		lr, err := h.bootstrap(ctx, in, bootDir)
		if err != nil {
			return rep, fmt.Errorf("bootstrap: %w", err)
		}
		rep.loadS = append(rep.loadS, lr.wallS)
		rep.loadCPU = append(rep.loadCPU, lr.cpuS)
		rep.loadRSS = append(rep.loadRSS, lr.rssMiB)
		rep.load = lr
	}
	rep.step("orfload", t)

	src := bootDir
	var c *cluster
	if w.crash {
		// Build the crash image: the bootstrap snapshot plus a WAL suffix
		// holding the whole live stream, cut by SIGKILL once every write
		// is acknowledged and synced.
		t = time.Now()
		pre, _, err := h.launch(ctx, bootDir, "pre")
		if err != nil {
			return rep, fmt.Errorf("launch before crash: %w", err)
		}
		rep.lv, err = h.live(ctx, pre, in)
		if err == nil {
			err = h.waitSynced(ctx, pre)
		}
		pre.kill()
		if err != nil {
			return rep, err
		}
		src = pre.leaderDir
		rep.step("pre-crash life", t)
	}
	t = time.Now()
	for i := 0; i < launches; i++ {
		if c != nil {
			c.kill()
			if err := os.RemoveAll(c.leaderDir); err != nil {
				return rep, err
			}
		}
		var lt launchTimes
		c, lt, err = h.launch(ctx, src, strconv.Itoa(i))
		if err != nil {
			return rep, fmt.Errorf("launch %d: %w", i, err)
		}
		rep.setups = append(rep.setups, lt.setupS)
		rep.catchups = append(rep.catchups, lt.catchupS)
		rep.last = lt
	}
	rep.step("launches", t)
	if !w.crash {
		t = time.Now()
		if rep.lv, err = h.live(ctx, c, in); err != nil {
			c.kill()
			return rep, err
		}
		rep.step("live", t)
	}
	t = time.Now()
	verr := h.verify(ctx, c, in)
	if verr != nil && !errors.Is(verr, errMismatch) {
		c.kill()
		return rep, verr
	}
	// The WAL the traced run replays: the crash image's, or else the live
	// leader's as it stands after the stream (before shutdown snapshots
	// and truncates it).
	walDir := filepath.Join(src, "wal")
	if h.trace {
		if rep.probe, err = h.seedProbe(ctx, c); err != nil {
			c.kill()
			return rep, fmt.Errorf("seed probe: %w", err)
		}
	}
	if h.trace && !w.crash {
		walDir = filepath.Join(h.work, "wal-image")
		if err := copyDir(filepath.Join(c.leaderDir, "wal"), walDir); err != nil {
			c.kill()
			return rep, err
		}
	}
	rep.rssMiB = median(rep.loadRSS)
	if !w.loaderPrimary {
		if rep.rssMiB, err = c.leader.peakRSSMiB(); err != nil {
			c.kill()
			return rep, err
		}
	}
	if err := c.stop(); err != nil {
		return rep, err
	}
	rep.step("verify+stop", t)
	size, err := dirBytes(c.leaderDir)
	if err != nil {
		return rep, err
	}
	rep.dataMiB = float64(size) / (1 << 20)

	rep.endToEnd()
	if rep.lv.obs.mismatches > 0 {
		verr = fmt.Errorf("%w: %d of %d observe replies differ, first %s",
			errMismatch, rep.lv.obs.mismatches, len(in.live), rep.lv.obs.firstBad)
	}
	if h.trace {
		t = time.Now()
		if rep.spans, err = measureSpans(ctx, h, in, walDir); err != nil {
			return rep, fmt.Errorf("traced spans: %w", err)
		}
		rep.perLayer()
		rep.step("spans", t)
	}
	return rep, verr
}

// endToEnd derives the end-to-end metrics.
func (r *report) endToEnd() {
	o, p := r.lv.obs, r.lv.pred
	r.obs = summarize(o.pacedLatMs)
	r.flood = summarize(o.floodLatMs)
	r.pred = summarize(p.latMs)
	r.stale = summarize(p.behind)
	r.late = summarize(o.lateMs)
	all := r.counts()
	r.e2e = map[string]float64{
		"setup_s":                  median(r.setups),
		"catchup_s":                median(r.catchups),
		"observe_cpu_ms_per_krow":  1e6 * o.floodCPUS / float64(o.floodRows),
		"backfill_cpu_ms_per_krow": 1e6 * median(r.loadCPU) / float64(r.in.historyRows),
		"predict_staleness_p99":    r.stale.Tail,
		"rss_peak_mb":              r.rssMiB,
		"observe_rows_per_s":       median(o.sliceRate),
		"backfill_rows_per_s":      float64(r.in.historyRows) / median(r.loadS),
		"observe_p50_ms":           r.obs.P50,
		"observe_p99_ms":           r.obs.Tail,
		"observe_flood_p99_ms":     r.flood.Tail,
		"predict_p50_ms":           r.pred.P50,
		"predict_p99_ms":           r.pred.Tail,
		"data_dir_mb":              r.dataMiB,
		"failed_ratio":             ratio(float64(all.failed()), float64(all.Attempted)),
	}
}

// counts returns the failure accounting of both load connections.
func (r *report) counts() (all opCount) {
	all.add(r.lv.obs.count)
	all.add(r.lv.pred.count)
	return all
}

// result assembles the JSON result for the run's mode.
func (r *report) result(spec benchSpec, trace bool) result {
	all := r.counts()
	res := result{Correct: true, Attempted: all.Attempted, Failed: all.failed(), Metrics: map[string]metricValue{}}
	list, vals := spec.EndToEnd, r.e2e
	if trace {
		list, vals = spec.PerLayer, r.layers
	}
	for _, m := range list {
		if v, ok := vals[m.Name]; ok {
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	return res
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
