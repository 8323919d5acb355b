package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"orfdisk"
	"orfdisk/internal/backfill"
	"orfdisk/internal/smart"
	"orfdisk/internal/wal"
)

// spanTimes are the harness-side spans of a traced run: in-process
// calls into each layer's public functions, on the run's own inputs,
// made after the processes under test have stopped.
type spanTimes struct {
	jsonDecodeS       float64 // decoding every observe body as the server does
	absorbSPerRow     float64 // Predictor.Absorb over the history
	ingestSPerRow     float64 // Predictor.IngestBatch over the live stream
	freezeS           float64 // one Predictor.Freeze of a final model
	walkNsPerRow      float64 // FrozenModel.ScoreBatchInto
	walReplayRows     int
	walReplayRowsPerS float64 // wal.Open + Replay on a copy of the leader's WAL
	decodeRowsPerS    float64 // smart.FastReader over the history files
	mergeS            float64 // backfill.Run into a discarding sink
	sinkS             float64 // time inside Engine.IngestBackfill during backfill.Run
}

// discardSink is a backfill.Sink that drops every batch.
type discardSink struct{}

func (discardSink) IngestBackfill([]orfdisk.FleetObservation, *orfdisk.BackfillCursor) error {
	return nil
}

func (discardSink) BackfillState() (orfdisk.BackfillCursor, uint64, bool) {
	return orfdisk.BackfillCursor{}, 0, false
}

// timedSink wraps a backfill.Sink and sums the time spent inside it.
type timedSink struct {
	backfill.Sink
	busy time.Duration
}

func (t *timedSink) IngestBackfill(b []orfdisk.FleetObservation, cur *orfdisk.BackfillCursor) error {
	start := time.Now()
	err := t.Sink.IngestBackfill(b, cur)
	t.busy += time.Since(start)
	return err
}

// measureSpans times each layer's public entry points on the run's
// inputs. walDir is the leader WAL to replay (a copy is replayed).
func measureSpans(ctx context.Context, h *harness, in *inputs, walDir string) (spanTimes, error) {
	var sp spanTimes

	start := time.Now()
	for _, b := range in.batches {
		dec := json.NewDecoder(bytes.NewReader(b.body))
		dec.DisallowUnknownFields()
		var req orfdisk.BatchRequest
		if err := dec.Decode(&req); err != nil {
			return sp, err
		}
	}
	sp.jsonDecodeS = since(start)

	// Predictor: absorb the history (the backfill path), then ingest the
	// live stream in the same batches, split by model as the engine's
	// shards see them.
	o := newOracle(h.serve.cfg)
	ts := &timedSink{Sink: o}
	if _, err := backfill.Run(ctx, ts, in.historyFiles, backfill.Options{ProgressEvery: -1}); err != nil {
		return sp, err
	}
	sp.absorbSPerRow = ts.busy.Seconds() / float64(in.historyRows)
	var ingest time.Duration
	var out []orfdisk.Prediction
	for _, b := range in.batches {
		byModel := map[string][]orfdisk.Observation{}
		for _, obs := range in.live[b.lo:b.hi] {
			byModel[obs.Model] = append(byModel[obs.Model], obs.Observation)
		}
		for m, batch := range byModel {
			p := o.predictor(m)
			t0 := time.Now()
			var err error
			if out, err = p.IngestBatch(batch, out[:0]); err != nil {
				return sp, err
			}
			ingest += time.Since(t0)
		}
	}
	sp.ingestSPerRow = ingest.Seconds() / float64(len(in.live))

	// Core: freeze and walk the final models.
	const freezes = 10
	var walk time.Duration
	var walked int
	start = time.Now()
	for _, m := range o.sortedModels() {
		for i := 0; i < freezes; i++ {
			o.models[m].Freeze()
		}
	}
	sp.freezeS = since(start) / float64(freezes*len(o.models))
	for _, m := range o.sortedModels() {
		fm := o.models[m].Frozen()
		var X [][]float64
		for _, obs := range in.live {
			if obs.Model == m && !obs.Failed && len(X) < 4096 {
				X = append(X, obs.Values)
			}
		}
		dst := make([]float64, 0, len(X))
		t0 := time.Now()
		for time.Since(t0) < 100*time.Millisecond {
			var err error
			if dst, err = fm.ScoreBatchInto(dst[:0], X); err != nil {
				return sp, err
			}
			walked += len(X)
		}
		walk += time.Since(t0)
	}
	sp.walkNsPerRow = float64(walk.Nanoseconds()) / float64(walked)

	// WAL replay on a copy of the leader's log.
	walCopy := filepath.Join(h.work, "wal-replay")
	if err := copyDir(walDir, walCopy); err != nil {
		return sp, err
	}
	start = time.Now()
	lg, err := wal.Open(wal.Options{Dir: walCopy})
	if err != nil {
		return sp, err
	}
	err = lg.Replay(func(uint64, []byte) error { sp.walReplayRows++; return nil })
	replay := since(start)
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sp, err
	}
	sp.walReplayRowsPerS = float64(sp.walReplayRows) / replay

	// Smart decode, merge and the engine as a backfill sink.
	start = time.Now()
	var decoded int64
	for _, f := range in.historyFiles {
		n, err := decodeFile(f)
		if err != nil {
			return sp, err
		}
		decoded += n
	}
	sp.decodeRowsPerS = float64(decoded) / since(start)

	start = time.Now()
	if _, err := backfill.Run(ctx, discardSink{}, in.historyFiles, backfill.Options{ProgressEvery: -1}); err != nil {
		return sp, err
	}
	sp.mergeS = since(start)

	eng, err := orfdisk.NewEngine(orfdisk.EngineConfig{DataDir: filepath.Join(h.work, "sink-engine")})
	if err != nil {
		return sp, err
	}
	es := &timedSink{Sink: eng}
	_, err = backfill.Run(ctx, es, in.historyFiles, backfill.Options{ProgressEvery: -1})
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sp, err
	}
	sp.sinkS = es.busy.Seconds()
	return sp, nil
}

// decodeFile reads one history file end to end with the fast CSV reader.
func decodeFile(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return 0, err
		}
		defer zr.Close()
		r = zr
	}
	fr, err := smart.NewFastReaderSize(r, 1<<20)
	if err != nil {
		return 0, err
	}
	var s smart.Sample
	for {
		switch err := fr.Read(&s); err {
		case nil:
		case io.EOF:
			return fr.Rows(), nil
		default:
			return 0, err
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var (
	observePath = map[string]string{"path": "/v1/observe/batch"}
	predictPath = map[string]string{"path": "/v1/predict/batch"}
)

// perLayer derives the per-layer metrics from the /metrics deltas of
// the live phase and the launch, orfload's own report, and the spans.
func (r *report) perLayer() {
	lv, sp, last := r.lv, r.spans, r.last
	L0, F0, R0 := lv.before[0], lv.before[1], lv.before[2]
	L1, F1, R1 := lv.after[0], lv.after[1], lv.after[2]
	both := func(name string, match map[string]string) float64 {
		return delta(L1, L0, name, match) + delta(F1, F0, name, match)
	}
	busy := delta(L1, L0, "http_request_seconds_sum", observePath)
	wait := delta(L1, L0, "engine_enqueue_wait_seconds_sum", nil)
	shard := delta(L1, L0, "engine_handler_seconds_sum", nil)
	client := lv.obs.clientS
	records := delta(L1, L0, "wal_append_records_total", nil)
	fsyncs := delta(L1, L0, "wal_fsync_total", nil)
	shipped := delta(L1, L0, "replication_records_shipped_total", nil)
	pr := r.probe
	// Seeds of the verified cluster's leader: its follower's at launch,
	// and the probe follower's after the live stream.
	seeded := func(name string) float64 {
		return delta(last.leaderCaught, last.leaderReady, name, nil) + delta(pr.leaderAfter, pr.leaderBefore, name, nil)
	}
	// The bytes gauge holds the most recent snapshot pass; count it only
	// for intervals in which a pass ran.
	passBytes := func(before, after scrape) float64 {
		if delta(after, before, "engine_snapshots_total", nil) == 0 {
			return 0
		}
		return after.sum("engine_snapshot_bytes", nil)
	}
	seedRecv := func(name string) float64 {
		return last.followerCaught.sum(name, nil) + pr.follower.sum(name, nil)
	}
	logged := func(k string) float64 {
		v, _ := strconv.ParseFloat(strings.Trim(r.load.logged[k], `"`), 64)
		return v
	}
	r.layers = map[string]float64{
		"observe.client_s":          client,
		"observe.unaccounted_s":     busy - sp.jsonDecodeS - wait - shard,
		"cluster.self_s":            client - busy,
		"cluster.requests":          delta(R1, R0, "route_requests_total", nil),
		"cluster.retries":           delta(R1, R0, "router_write_retries_total", nil),
		"serve.observe.busy_s":      busy,
		"serve.observe.self_s":      busy - wait - shard,
		"serve.predict.busy_s":      both("http_request_seconds_sum", predictPath),
		"serve.json_decode_s":       sp.jsonDecodeS,
		"engine.mailbox_wait_s":     wait,
		"engine.shard_busy_s":       shard,
		"engine.jobs":               delta(L1, L0, "engine_handler_seconds_count", nil),
		"engine.shed":               delta(L1, L0, "engine_busy_total", nil),
		"predictor.ingest_s":        sp.ingestSPerRow,
		"predictor.absorb_s":        sp.absorbSPerRow,
		"core.freeze.publishes":     both("engine_frozen_publishes_total", nil),
		"core.freeze_s":             sp.freezeS,
		"core.walk_ns_per_row":      sp.walkNsPerRow,
		"predict.busy_s":            both("predict_seconds_sum", nil),
		"wal.records":               records,
		"wal.bytes_per_record":      ratio(delta(L1, L0, "wal_append_bytes_total", nil), records),
		"wal.fsyncs":                fsyncs,
		"wal.fsync_s":               delta(L1, L0, "wal_fsync_seconds_sum", nil),
		"wal.records_per_fsync":     ratio(records, fsyncs),
		"wal.replay_rows_per_s":     sp.walReplayRowsPerS,
		"snapshot.s":                seeded("engine_snapshot_seconds_sum"),
		"snapshot.encode_s":         seeded("engine_snapshot_encode_seconds_sum"),
		"snapshot.bytes":            passBytes(last.leaderReady, last.leaderCaught) + passBytes(pr.leaderBefore, pr.leaderAfter),
		"recovery.replayed":         last.leaderReady.sum("engine_recovery_replayed_records_total", nil),
		"recovery.skipped":          last.leaderReady.sum("engine_recovery_skipped_records_total", nil),
		"replica.records_shipped":   shipped,
		"replica.bytes_shipped":     delta(L1, L0, "replication_bytes_shipped_total", nil),
		"replica.records_per_frame": ratio(shipped, delta(L1, L0, "replication_frames_shipped_total", nil)),
		"replica.reseeds":           seedRecv("replica_reseeds_total"),
		"replica.seed_wire_bytes":   seedRecv("replica_reseed_bytes_total"),
		"replica.seed_raw_bytes":    seedRecv("replica_reseed_raw_bytes_total"),
		"replica.lag_max_records":   lv.lagMax,
		"backfill.rows":             logged("rows"),
		"backfill.bytes":            logged("mb") * 1e6,
		"backfill.skipped":          logged("skipped"),
		"backfill.checkpoints":      logged("checkpoints"),
		"smart.decode_rows_per_s":   sp.decodeRowsPerS,
		"backfill.merge_s":          sp.mergeS,
		"backfill.sink_s":           sp.sinkS,
		"gen.pace_late_ms":          r.late.Tail,
	}
}

// layerMoves says which end-to-end metric each layer's metrics should
// move, and on which workload (the benchmark doc carries the same map).
var layerMoves = []struct{ prefix, moves string }{
	{"observe.", "the observe breakdown: parts sum to observe.client_s"},
	{"cluster.", "observe_p50_ms, observe_rows_per_s, observe_cpu_ms_per_krow on fleet-day"},
	{"serve.", "observe_*, predict_* on fleet-day; nothing elsewhere"},
	{"engine.", "observe_p99_ms, observe_rows_per_s, observe_cpu_ms_per_krow on fleet-day; backfill_*"},
	{"predictor.", "observe_rows_per_s, observe_cpu_ms_per_krow, backfill_*, setup_s on restart"},
	{"core.", "predict_p50_ms, predict_staleness_p99 on fleet-day; nothing on backfill"},
	{"predict.", "predict_p50_ms, predict_staleness_p99 on fleet-day; nothing on backfill"},
	{"wal.", "observe_p99_ms, backfill_*, setup_s on restart, data_dir_mb"},
	{"snapshot.", "setup_s, catchup_s on restart; data_dir_mb"},
	{"recovery.", "setup_s, catchup_s on restart; data_dir_mb"},
	{"replica.", "catchup_s on restart; observe_rows_per_s, observe_cpu_ms_per_krow on fleet-day (shared cores)"},
	{"backfill.", "backfill_rows_per_s, backfill_cpu_ms_per_krow only"},
	{"smart.", "backfill_rows_per_s, backfill_cpu_ms_per_krow only"},
	{"gen.", "the load generator's health, not the system's"},
}

func movesFor(name string) string {
	for _, lm := range layerMoves {
		if strings.HasPrefix(name, lm.prefix) {
			return lm.moves
		}
	}
	return ""
}

// breakdownLines prints the observe breakdown: parts that sum to the
// client-observed observe time of the live phase.
func (r *report) breakdownLines() []string {
	l := r.layers
	client := l["observe.client_s"]
	parts := []struct {
		name string
		v    float64
	}{
		{"cluster self (client - leader HTTP busy)", l["cluster.self_s"]},
		{"serve JSON decode (harness span, same bodies)", l["serve.json_decode_s"]},
		{"engine mailbox wait (blocked enqueues only)", l["engine.mailbox_wait_s"]},
		{"engine shard busy", l["engine.shard_busy_s"]},
		{"unaccounted (rest of leader HTTP busy)", l["observe.unaccounted_s"]},
	}
	out := []string{fmt.Sprintf("observe breakdown, live phase, %d requests: client-observed %.4f s", r.lv.obs.count.Attempted, client)}
	var sum float64
	for _, p := range parts {
		sum += p.v
		out = append(out, fmt.Sprintf("  %-48s %9.4f s  %6.1f%%", p.name, p.v, 100*ratio(p.v, client)))
		if strings.HasPrefix(p.name, "engine shard busy") {
			out = append(out, fmt.Sprintf("  %-48s %9.4f s", "  of which WAL fsync", l["wal.fsync_s"]))
		}
	}
	out = append(out, fmt.Sprintf("  %-48s %9.4f s  (serve self = decode + unaccounted = %.4f s)", "sum of parts", sum, l["serve.observe.self_s"]))
	out = append(out, "  shard busy sums both model shards, which run in parallel, so unaccounted can go negative")
	return out
}
