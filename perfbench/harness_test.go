package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"orfdisk"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..n, so the nearest-rank q-quantile is ceil(q*n)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n         int
		wantQ     float64
		wantTail  float64
		wantP50   float64
		wantNoted int // samples beyond the tail
	}{
		{n: 2000, wantQ: 0.99, wantTail: 1980, wantP50: 1000, wantNoted: 20},
		{n: 1000, wantQ: 0.99, wantTail: 990, wantP50: 500, wantNoted: 10},
		{n: 999, wantQ: 0.98, wantTail: 980, wantP50: 500, wantNoted: 19},
		{n: 500, wantQ: 0.98, wantTail: 490, wantP50: 250, wantNoted: 10},
		{n: 100, wantQ: 0.9, wantTail: 90, wantP50: 50, wantNoted: 10},
		{n: 40, wantQ: 0.75, wantTail: 30, wantP50: 20, wantNoted: 10},
		{n: 15, wantQ: 1, wantTail: 15, wantP50: 8, wantNoted: 0},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailQ != c.wantQ || s.Tail != c.wantTail || s.P50 != c.wantP50 {
			t.Errorf("n=%d: got N=%d p50=%v tail p%v=%v, want p50=%v tail p%v=%v",
				c.n, s.N, s.P50, s.TailQ*100, s.Tail, c.wantP50, c.wantQ*100, c.wantTail)
		}
		if beyond := c.n - int(s.Tail); beyond != c.wantNoted {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.wantNoted)
		}
	}
	// A failed request enters as +Inf and lands in the tail.
	xs := append(seq(999), math.Inf(1))
	if s := summarize(xs); !math.IsInf(s.Max, 1) || s.Tail != 990 {
		t.Errorf("with one failure: max %v tail %v, want +Inf and 990", s.Max, s.Tail)
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty sample: %+v", s)
	}
}

// TestDueTimeLatencyShowsStall drives the paced observe loop against a
// fake server that stalls once. Requests due during the stall are sent
// late, and their latency, timed from the due time, must include the
// wait.
func TestDueTimeLatencyShowsStall(t *testing.T) {
	const (
		batches  = 30
		stallAt  = 5
		stall    = 150 * time.Millisecond
		interval = 10 * time.Millisecond
	)
	in := &inputs{}
	for b := 0; b < batches; b++ {
		lo := len(in.live)
		var req orfdisk.BatchRequest
		for i := 0; i < pacedBatch; i++ {
			obs := orfdisk.FleetObservation{Model: "M", Observation: orfdisk.Observation{Serial: "S", Day: lo + i}}
			in.live = append(in.live, obs)
			in.want = append(in.want, orfdisk.Prediction{Serial: "S", Day: lo + i, Score: 0.25})
			req.Observations = append(req.Observations, orfdisk.ObservationRequest{Serial: "S", Model: "M", Day: lo + i})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		in.batches = append(in.batches, obsBatch{lo: lo, hi: len(in.live), body: body})
	}
	in.paced = batches

	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req orfdisk.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if calls.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		out := make([]orfdisk.BatchItemResponse, len(req.Observations))
		for i, o := range req.Observations {
			out[i].Serial, out[i].Day, out[i].Score = o.Serial, o.Day, 0.25
		}
		json.NewEncoder(w).Encode(out)
	}))
	defer srv.Close()

	var phase atomic.Int32
	rate := float64(pacedBatch) / interval.Seconds()
	r := driveObserve(context.Background(), newClient(), srv.URL, in, rate, &phase, func() float64 { return 0 })
	if r.mismatches != 0 || r.count.OK != batches {
		t.Fatalf("fake server replies: %d mismatches, %+v (first %s)", r.mismatches, r.count, r.firstBad)
	}
	if got := r.pacedLatMs[stallAt]; got < ms(stall) {
		t.Errorf("stalled request: %.1f ms, want >= %v", got, stall)
	}
	// Every request due while the stall lasted waits for it: its latency
	// from due time is at least the rest of the stall.
	for k := stallAt + 1; k < batches; k++ {
		rest := stall - time.Duration(k-stallAt)*interval
		if rest <= 0 {
			break
		}
		if got := r.pacedLatMs[k]; got < ms(rest) {
			t.Errorf("request %d due %v into the stall: %.1f ms, want >= %.1f ms",
				k, time.Duration(k-stallAt)*interval, got, ms(rest))
		}
		if late := r.lateMs[k]; late < ms(rest)-ms(interval) {
			t.Errorf("request %d sent %.1f ms late, want >= %.1f", k, late, ms(rest)-ms(interval))
		}
	}
	if phase.Load() != phaseDone {
		t.Errorf("phase %d after the run, want done", phase.Load())
	}
}

func TestMetricsDelta(t *testing.T) {
	read := func(name string) scrape {
		t.Helper()
		f, err := os.Open("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, err := parseProm(f)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before, after := read("metrics_before.txt"), read("metrics_after.txt")
	cases := []struct {
		name  string
		match map[string]string
		want  float64
	}{
		{"http_request_seconds_count", observePath, 2},
		{"http_requests_total", map[string]string{"path": "/v1/observe/batch", "code": "200"}, 2},
		{"wal_append_records_total", nil, 96},
		{"engine_handler_seconds_count", nil, 10},
		{"engine_frozen_publishes_total", nil, 1},
		{"no_such_family", nil, 0},
	}
	for _, c := range cases {
		if got := delta(after, before, c.name, c.match); got != c.want {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	if got := after.sum("http_request_seconds_bucket", map[string]string{"path": "/v1/observe/batch", "le": "+Inf"}); got != 2 {
		t.Errorf("+Inf bucket = %v, want 2", got)
	}
	if d := delta(after, before, "http_request_seconds_sum", observePath); d <= 0 || d > 1 {
		t.Errorf("observe busy delta %v, want a small positive time", d)
	}
	if d := delta(after, nil, "wal_append_records_total", nil); d != after.sum("wal_append_records_total", nil) {
		t.Errorf("delta against no scrape = %v, want the absolute value", d)
	}

	// Label values with escapes, and malformed lines.
	s, err := parseProm(strings.NewReader("# HELP x y\nx_total{path=\"/a\\\"b\",code=\"2\\\\0\"} 3\ny 1e3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("x_total", map[string]string{"path": `/a"b`, "code": `2\0`}); got != 3 {
		t.Errorf("escaped labels: %v", got)
	}
	if got := s.sum("y", nil); got != 1000 {
		t.Errorf("y = %v", got)
	}
	for _, bad := range []string{"x{a=\"1\" 2\n", "x{a=1} 2\n", "x\n", "x{a=\"1\"}\n", "x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "observe_p99_ms", "wal.records_per_fsync", "fleet-day", "9lives", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "p99%", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the names the harness
// emits and the limits the file must respect.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok || !validName(w.Name) || seen[w.Name] {
			t.Errorf("workload %q: unknown, invalid or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	var setup bool
	for _, m := range spec.EndToEnd {
		if !validName(m.Name) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: invalid name, repeated, or bound outside (0, 0.25]", m)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}
	for _, m := range spec.PerLayer {
		if !validName(m.Name) || seen[m.Name] || movesFor(m.Name) == "" {
			t.Errorf("per-layer metric %q: invalid, repeated, or not mapped to a layer", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestFreeAddr checks that the ports handed to processes under test are
// distinct, bindable and outside the range outgoing connections take
// their source ports from.
func TestFreeAddr(t *testing.T) {
	lo, hi := ephemeralRange()
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		addr, err := freeAddr()
		if err != nil {
			t.Fatal(err)
		}
		_, p, _ := net.SplitHostPort(addr)
		port, _ := strconv.Atoi(p)
		if seen[addr] || (port >= lo && port <= hi) {
			t.Fatalf("freeAddr() = %s: repeated or inside the ephemeral range %d-%d", addr, lo, hi)
		}
		seen[addr] = true
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("freeAddr() = %s, not bindable: %v", addr, err)
		}
		l.Close()
	}
}

// TestParseServeDefaults checks that the oracle's configuration is the
// one orfserve's -h reports, and that a missing default is an error.
func TestParseServeDefaults(t *testing.T) {
	defs := map[string]string{"trees": "30", "lambdan": "0.02", "threshold": "0.5", "horizon": "7", "freeze-every": "256"}
	d, err := parseServeDefaults(defs)
	if err != nil {
		t.Fatal(err)
	}
	want := orfdisk.Config{Threshold: 0.5, Horizon: 7, ORF: orfdisk.ORFConfig{Trees: 30, LambdaNeg: 0.02}}
	if !reflect.DeepEqual(d.cfg, want) || d.freezeEvery != 256 {
		t.Errorf("parseServeDefaults = %+v, freeze-every %d; want %+v, 256", d.cfg, d.freezeEvery, want)
	}
	delete(defs, "horizon")
	if _, err := parseServeDefaults(defs); err == nil {
		t.Error("parseServeDefaults without -horizon: no error")
	}
}
