package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Load shape shared by every workload. The rates are fixed, not
// calibrated per run, so two commits see the same offered load; README.md
// gives the measurements they were chosen from.
const (
	pacedBatch  = 24      // observations per /v1/observe/batch request in the paced phase (~1/12 of a fleet day)
	floodBatch  = 256     // observations per /v1/observe/batch request in the flood
	pacedRate   = 5000.0  // rows/s offered in the paced phase: about half the closed-loop rate at pacedBatch with the predict load beside it
	pacedShare  = 0.7     // of --seconds spent paced; the flood is sized to take about the rest
	floodRate   = 13000.0 // rows/s used only to size the flood phase
	predictRate = 125.0   // /v1/predict/batch requests per second, paced phase only (8 000 scored vectors/s)
	launches    = 3       // SUT launches per run; setup_s and catchup_s are their medians
	loads       = 3       // orfload runs per run; the backfill metrics are their medians
	floodSlices = 8       // observe_rows_per_s is the median rate over this many equal slices of the flood
)

// workload is one benchmark scenario. Every workload runs the same life
// of a node (bootstrap from history with orfload, launch leader +
// follower + router, serve a live stream, shut down); they differ in
// which part dominates. BENCHMARK.json says why each one exists.
type workload struct {
	name            string
	months          int  // fleet window in months (orfgen -months)
	historyQuarters int  // quarters of history loaded by orfload
	gzip            bool // orfgen -gzip
	crash           bool // SIGKILL the leader after the live stream and time recovery
	loaderPrimary   bool // rss_peak_mb is orfload's, not the leader's
}

var workloads = []workload{
	{
		name:            "fleet-day",
		months:          27,
		historyQuarters: 4,
	},
	{
		name:            "backfill",
		months:          30,
		historyQuarters: 6,
		gzip:            true,
		loaderPrimary:   true,
	},
	{
		name:            "restart",
		months:          27,
		historyQuarters: 4,
		crash:           true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is the size of the live stream for a run of a given length: a
// share of the time paced, and a flood sized to take about the rest.
type plan struct{ pacedRows, floodRows int }

func (w workload) plan(seconds int) plan {
	s := float64(seconds)
	return plan{
		pacedRows: int(pacedRate*s*pacedShare) / pacedBatch * pacedBatch,
		floodRows: int(floodRate*s*(1-pacedShare)) / floodBatch * floodBatch,
	}
}

// cluster is one running leader + follower + router.
type cluster struct {
	leader, follower, router *proc
	leaderDir                string
	ship                     string // the leader's -replicate-addr
	head                     uint64 // leader WAL head at launch
}

func (c *cluster) kill() {
	for _, p := range []*proc{c.router, c.follower, c.leader} {
		if p != nil {
			p.kill()
		}
	}
}

// stop shuts the cluster down cleanly, router first, leader last.
func (c *cluster) stop() error {
	for _, p := range []*proc{c.router, c.follower, c.leader} {
		if err := p.stop(30 * time.Second); err != nil {
			return err
		}
	}
	return nil
}

// launchTimes is what one launch measured.
type launchTimes struct {
	setupS, catchupS float64
	// Traced runs only: leader scrapes around the follower's seed, and
	// the follower's scrape once caught up.
	leaderReady, leaderCaught, followerCaught scrape
}

type replStatus struct {
	Role       string `json:"role"`
	Applied    uint64 `json:"applied_seq"`
	LeaderHead uint64 `json:"leader_head"`
	LagRecords uint64 `json:"lag_records"`
}

// launch starts a leader on a copy of src, then an empty follower and
// the router. setup_s runs from the leader's start until every process
// has answered /readyz 200 (a follower answers it within -ready-max-lag
// records of the leader); catchup_s from the follower's start until it
// has applied the leader's whole WAL and is ready.
func (h *harness) launch(ctx context.Context, src, tag string) (*cluster, launchTimes, error) {
	var lt launchTimes
	c := &cluster{leaderDir: filepath.Join(h.work, "leader-"+tag)}
	if err := copyDir(src, c.leaderDir); err != nil {
		return nil, lt, err
	}
	addrs := make([]string, 4)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, lt, err
		}
		addrs[i] = a
	}
	leaderAPI, shipAddr, followerAPI, routerAPI := addrs[0], addrs[1], addrs[2], addrs[3]
	c.ship = shipAddr

	ctl := h.ctl
	start := time.Now()
	var err error
	c.leader, err = h.procs.start(h.work, "leader-"+tag, h.binPath("orfserve"),
		"-addr", leaderAPI, "-data", c.leaderDir, "-replicate-addr", shipAddr)
	if err != nil {
		return nil, lt, err
	}
	c.leader.api = "http://" + leaderAPI
	if err := waitReady(ctx, ctl, c.leader); err != nil {
		c.kill()
		return nil, lt, err
	}
	var ls replStatus
	if err := getJSON(ctl, c.leader.api+"/v1/replication", &ls); err != nil {
		c.kill()
		return nil, lt, err
	}
	c.head = ls.Applied
	if h.trace {
		if lt.leaderReady, err = scrapeMetrics(ctl, c.leader.api); err != nil {
			c.kill()
			return nil, lt, err
		}
	}

	fstart := time.Now()
	c.follower, err = h.procs.start(h.work, "follower-"+tag, h.binPath("orfserve"),
		"-addr", followerAPI, "-data", filepath.Join(h.work, "follower-"+tag), "-follow", shipAddr)
	if err != nil {
		c.kill()
		return nil, lt, err
	}
	c.follower.api = "http://" + followerAPI
	c.router, err = h.procs.start(h.work, "router-"+tag, h.binPath("orfrouter"),
		"-addr", routerAPI, "-nodes", fmt.Sprintf("g0=http://%s,http://%s", leaderAPI, followerAPI))
	if err != nil {
		c.kill()
		return nil, lt, err
	}
	c.router.api = "http://" + routerAPI

	// Poll the router's and the follower's readiness and the follower's
	// catch-up together.
	ready := func(p *proc) bool {
		code, _, err := get(ctl, p.api+"/readyz")
		return err == nil && code == http.StatusOK
	}
	var routerAt, followerAt, caughtAt time.Time
	err = until(ctx, c.follower, "follower catch-up", func() (bool, error) {
		if !c.router.running() {
			return false, fmt.Errorf("router exited during launch (log %s)", c.router.logPath)
		}
		if routerAt.IsZero() && ready(c.router) {
			routerAt = time.Now()
		}
		if caughtAt.IsZero() {
			var fs replStatus
			if err := getJSON(ctl, c.follower.api+"/v1/replication", &fs); err == nil &&
				fs.Applied == c.head && fs.LagRecords == 0 && ready(c.follower) {
				caughtAt = time.Now()
			}
		}
		if followerAt.IsZero() && (!caughtAt.IsZero() || ready(c.follower)) {
			followerAt = time.Now()
		}
		return !caughtAt.IsZero() && !routerAt.IsZero(), nil
	})
	if err != nil {
		c.kill()
		return nil, lt, err
	}
	lt.catchupS = caughtAt.Sub(fstart).Seconds()
	end := followerAt
	if routerAt.After(end) {
		end = routerAt
	}
	lt.setupS = end.Sub(start).Seconds()
	if h.trace {
		if lt.leaderCaught, err = scrapeMetrics(ctl, c.leader.api); err != nil {
			c.kill()
			return nil, lt, err
		}
		if lt.followerCaught, err = scrapeMetrics(ctl, c.follower.api); err != nil {
			c.kill()
			return nil, lt, err
		}
	}
	return c, lt, nil
}

// liveResult is what the live phase measured.
type liveResult struct {
	obs  observeResult
	pred predictResult
	// Traced runs only.
	before, after [3]scrape // leader, follower, router
	lagMax        float64
	stealPct      float64 // share of the host's CPU time stolen by other VMs during the phase
}

// live replays the live stream through the router: observe batches on
// one connection, predicts on another.
func (h *harness) live(ctx context.Context, c *cluster, in *inputs) (lr liveResult, err error) {
	nodes := []*proc{c.leader, c.follower, c.router}
	if h.trace {
		for i, p := range nodes {
			s, err := scrapeMetrics(h.ctl, p.api)
			if err != nil {
				return lr, err
			}
			lr.before[i] = s
		}
	}
	// The harness collects its garbage now and not during the phase, so
	// its own pauses never show up as system latency.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	total0, steal0 := cpuTicks()
	defer func() {
		total1, steal1 := cpuTicks()
		lr.stealPct = 100 * ratio(steal1-steal0, total1-total0)
	}()
	var phase atomic.Int32
	var wg sync.WaitGroup
	stopLag := make(chan struct{})
	if h.trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lagClient := newClient()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-t.C:
					var fs replStatus
					if err := getJSON(lagClient, c.follower.api+"/v1/replication", &fs); err == nil {
						lr.lagMax = max(lr.lagMax, float64(fs.LagRecords))
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		lr.pred = drivePredict(ctx, newClient(), c.router.api+"/v1/predict/batch", in.predictBody, predictRate, &phase)
	}()
	cpu := func() float64 { return c.router.cpuS() + c.leader.cpuS() + c.follower.cpuS() }
	lr.obs = driveObserve(ctx, newClient(), c.router.api+"/v1/observe/batch", in, pacedRate, &phase, cpu)
	close(stopLag)
	wg.Wait()
	if h.trace {
		for i, p := range nodes {
			s, err := scrapeMetrics(h.ctl, p.api)
			if err != nil {
				return lr, err
			}
			lr.after[i] = s
		}
	}
	return lr, ctx.Err()
}

// seedScrapes are the /metrics pages a traced run takes around a seed.
type seedScrapes struct{ leaderBefore, leaderAfter, follower scrape }

// seedProbe attaches one more empty follower to the leader after the
// live stream, waits until it has applied the leader's whole WAL, and
// stops it. Traced runs use it to price snapshotting and shipping the
// live state.
func (h *harness) seedProbe(ctx context.Context, c *cluster) (seedScrapes, error) {
	var ss seedScrapes
	var err error
	if ss.leaderBefore, err = scrapeMetrics(h.ctl, c.leader.api); err != nil {
		return ss, err
	}
	var ls replStatus
	if err := getJSON(h.ctl, c.leader.api+"/v1/replication", &ls); err != nil {
		return ss, err
	}
	addr, err := freeAddr()
	if err != nil {
		return ss, err
	}
	p, err := h.procs.start(h.work, "follower-probe", h.binPath("orfserve"),
		"-addr", addr, "-data", filepath.Join(h.work, "follower-probe"), "-follow", c.ship)
	if err != nil {
		return ss, err
	}
	p.api = "http://" + addr
	err = until(ctx, p, "probe follower catch-up", func() (bool, error) {
		var fs replStatus
		err := getJSON(h.ctl, p.api+"/v1/replication", &fs)
		return err == nil && fs.Applied == ls.Applied && fs.LagRecords == 0, nil
	})
	if err == nil {
		ss.leaderAfter, err = scrapeMetrics(h.ctl, c.leader.api)
	}
	if err == nil {
		ss.follower, err = scrapeMetrics(h.ctl, p.api)
	}
	if serr := p.stop(30 * time.Second); err == nil {
		err = serr
	}
	return ss, err
}

// waitCaughtUp waits until the follower has applied the leader's head.
func (h *harness) waitCaughtUp(ctx context.Context, c *cluster) error {
	var ls replStatus
	if err := getJSON(h.ctl, c.leader.api+"/v1/replication", &ls); err != nil {
		return err
	}
	return until(ctx, c.follower, "follower catch-up", func() (bool, error) {
		var fs replStatus
		err := getJSON(h.ctl, c.follower.api+"/v1/replication", &fs)
		return err == nil && fs.Applied == ls.Applied, nil
	})
}

// verify checks leader and follower against the oracle, once the
// follower has applied the leader's whole WAL: probe scores bit for bit,
// and /v1/stats model by model.
func (h *harness) verify(ctx context.Context, c *cluster, in *inputs) error {
	if err := h.waitCaughtUp(ctx, c); err != nil {
		return err
	}
	for _, p := range []*proc{c.leader, c.follower} {
		if err := checkProbes(ctx, h.ctl, p.api, in.probes); err != nil {
			return fmt.Errorf("%w: %v", errMismatch, err)
		}
		if err := checkStats(h.ctl, p.api, in.final); err != nil {
			return fmt.Errorf("%w: %v", errMismatch, err)
		}
	}
	return nil
}

// waitSynced waits until the leader's WAL has stopped appending and
// syncing: two scrapes one sync interval apart agree.
func (h *harness) waitSynced(ctx context.Context, c *cluster) error {
	var prev [2]float64
	return until(ctx, c.leader, "WAL sync", func() (bool, error) {
		time.Sleep(60 * time.Millisecond) // > the WAL's 50 ms group-commit interval
		s, err := scrapeMetrics(h.ctl, c.leader.api)
		if err != nil {
			return false, err
		}
		cur := [2]float64{s.sum("wal_append_records_total", nil), s.sum("wal_fsync_total", nil)}
		done := cur == prev
		prev = cur
		return done, nil
	})
}

// loadResult is what the orfload bootstrap measured.
type loadResult struct {
	wallS     float64
	cpuS      float64           // user + system CPU seconds
	rssMiB    float64           // last VmHWM sampled before exit
	logged    map[string]string // fields of orfload's "backfill finished" line
	lastScrap scrape            // traced runs: last /metrics page before exit
}

var logField = regexp.MustCompile(`(\w+)=("[^"]*"|\S+)`)

// bootstrap loads the history into an empty data directory with
// orfload and times it from process start to clean exit.
func (h *harness) bootstrap(ctx context.Context, in *inputs, dir string) (loadResult, error) {
	var lr loadResult
	args := []string{"-data", dir}
	var metricsAddr string
	if h.trace {
		a, err := freeAddr()
		if err != nil {
			return lr, err
		}
		metricsAddr = a
		args = append(args, "-metrics-addr", a)
	}
	args = append(args, in.historyFiles...)
	p, err := h.procs.start(h.work, "orfload", h.binPath("orfload"), args...)
	if err != nil {
		return lr, err
	}
	// Until orfload exits, sample its peak RSS (it can only be read while
	// the process lives) and, when traced, its /metrics page (the admin
	// listener closes as it exits; keep the last page).
	c := newClient()
	for i := 0; p.running(); i++ {
		if rss, err := p.peakRSSMiB(); err == nil {
			lr.rssMiB = rss
		}
		if h.trace && i%2 == 0 {
			if s, err := scrapeMetrics(c, "http://"+metricsAddr); err == nil {
				lr.lastScrap = s
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := p.wait(2 * time.Minute); err != nil {
		return lr, err
	}
	lr.wallS = p.exited.Sub(p.started).Seconds()
	lr.cpuS = p.cpuS()
	log, err := os.ReadFile(p.logPath)
	if err != nil {
		return lr, err
	}
	re := regexp.MustCompile(`msg="backfill finished".*`)
	line := re.Find(log)
	if line == nil {
		return lr, fmt.Errorf("orfload log has no \"backfill finished\" line (%s)", p.logPath)
	}
	lr.logged = map[string]string{}
	for _, m := range logField.FindAllSubmatch(line, -1) {
		lr.logged[string(m[1])] = string(m[2])
	}
	rows, err := strconv.ParseInt(lr.logged["rows"], 10, 64)
	if err != nil {
		return lr, fmt.Errorf("orfload rows=%q: %v", lr.logged["rows"], err)
	}
	if rows != in.historyRows {
		return lr, fmt.Errorf("%w: orfload loaded %d rows, the history has %d", errMismatch, rows, in.historyRows)
	}
	return lr, ctx.Err()
}
