package orfdisk

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestDurableRunsKeepWALOrder holds the replay and replication feeders,
// which apply one dispatch per run of same-model records, to the live
// engine that wrote the WAL one batch at a time. The stream interleaves
// two models in short runs and also holds a same-model stretch longer
// than maxApplyRun with a poison pill and a retire in its middle, a
// serial that fails under one model and is observed under the other
// across a run boundary, and backfill batches whose cursor records cut
// runs. Three engines must match the live one: a WAL-only crash image,
// a snapshot+suffix image whose two model snapshots were taken at
// different points (so some records lie above one model's snapshot but
// below the other's), and a follower fed the WAL in frames that split
// runs and carry cursor records mid-frame.
func TestDurableRunsKeepWALOrder(t *testing.T) {
	obs := engineStream(t, 77, 2)
	n := len(obs)
	if n < 4000 {
		t.Fatalf("stream too short: %d", n)
	}
	cfg := engineTestConfig()
	dir, snapDir := t.TempDir(), t.TempDir()
	leader, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	modelA := obs[0].Model
	var modelB string
	for _, o := range obs {
		if o.Model != modelA {
			modelB = o.Model
			break
		}
	}
	if modelB == "" {
		t.Fatal("stream holds one model")
	}

	live := func(part []FleetObservation) {
		t.Helper()
		for k := 0; len(part) > 0; k++ {
			size := min(1+(k*7)%23, len(part))
			for i, r := range leader.IngestBatch(append([]FleetObservation(nil), part[:size]...)) {
				if r.Err != nil {
					t.Fatalf("live ingest of %s: %v", part[i].Serial, r.Err)
				}
			}
			part = part[size:]
		}
	}
	var cur BackfillCursor
	backfill := func(part []FleetObservation) {
		t.Helper()
		for k := 0; len(part) > 0; k++ {
			size := min(50, len(part))
			var c *BackfillCursor
			if k%2 == 0 {
				cur.Day, cur.Rows = part[size-1].Day, cur.Rows+int64(size)
				cur.Files = []BackfillFilePos{{Name: "q.csv", Rows: cur.Rows, Off: 100 * cur.Rows}}
				c = &cur
			}
			if err := leader.IngestBackfill(part[:size], c); err != nil {
				t.Fatal(err)
			}
			part = part[size:]
		}
	}
	pills := make(map[uint64]bool)
	poison := func(serial string) {
		t.Helper()
		bad := FleetObservation{Model: modelA, Observation: Observation{
			Serial: serial, Day: 1, Values: []float64{1, 2, 3},
		}}
		var it applyItem
		if err := leader.pool.Do(modelA, func(s *shardState) {
			items := []applyItem{{rec: walRecord{kind: recObserveV2, obs: bad}}}
			leader.logAndApply(s, items)
			it = items[0]
		}); err != nil {
			t.Fatal(err)
		}
		if it.err == nil || it.seq == 0 {
			t.Fatalf("poison pill: seq %d err %v, want a logged and rejected record", it.seq, it.err)
		}
		pills[it.seq] = true
	}
	// snapshotOnly writes one model's snapshot into snapDir, leaving the
	// leader's own data dir (and WAL) untouched.
	snapshotOnly := func(model string) uint64 {
		t.Helper()
		var (
			seq  uint64
			serr error
		)
		if err := leader.pool.Query(model, func(s *shardState) {
			seq = s.lastSeq
			_, serr = writeSnapshot(snapDir, model, s)
		}); err != nil || serr != nil {
			t.Fatal(err, serr)
		}
		return seq
	}
	ingest := func(o FleetObservation) {
		t.Helper()
		if _, err := leader.Ingest(o); err != nil {
			t.Fatalf("ingest %s under %s: %v", o.Serial, o.Model, err)
		}
	}
	crossover := func(model string, day int, failed bool) FleetObservation {
		return FleetObservation{Model: model, Observation: Observation{
			Serial: "crossover", Day: day, Failed: failed, Values: obs[0].Values,
		}}
	}
	only := func(part []FleetObservation, model string) []FleetObservation {
		var out []FleetObservation
		for _, o := range part {
			if o.Model == model {
				out = append(out, o)
			}
		}
		return out
	}

	// 1. interleaved runs; the crossover disk starts under model A.
	live(obs[:n/5])
	ingest(crossover(modelA, obs[n/5].Day, false))
	// 2. backfill: cursor records between runs.
	backfill(obs[n/5 : 3*n/10])
	snapB := snapshotOnly(modelB)
	// 3. interleaved records above B's snapshot and below A's.
	live(obs[3*n/10 : 2*n/5])
	poison("poison-covered")
	snapA := snapshotOnly(modelA)
	// 4. one A stretch longer than the cap with a pill and a retire in
	// its middle, ending in the crossover disk's failure; the B stretch
	// that follows opens with the same disk under model B.
	block := obs[2*n/5 : 7*n/10]
	blockA, blockB := only(block, modelA), only(block, modelB)
	half := len(blockA) / 2
	live(blockA[:half])
	poison("poison-mid-run")
	if err := leader.Retire(blockA[half-1].Serial); err != nil {
		t.Fatal(err)
	}
	live(blockA[half:])
	ingest(crossover(modelA, block[len(block)-1].Day, true))
	ingest(crossover(modelB, block[len(block)-1].Day, false))
	live(blockB)
	// 5. more backfill, then interleaved runs to the end.
	backfill(obs[7*n/10 : 4*n/5])
	live(obs[4*n/5:])

	recs := leaderRecords(t, leader, nil)
	kinds := make([]walRecord, len(recs))
	for i, r := range recs {
		rec, err := decodeRecord(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		kinds[i] = rec
	}
	// The stream must hold what the test claims it holds.
	longest, stretch := 0, 0
	for i, k := range kinds {
		if i > 0 && k.kind != recCursor && kinds[i-1].kind != recCursor && k.obs.Model == kinds[i-1].obs.Model {
			stretch++
		} else {
			stretch = 1
		}
		longest = max(longest, stretch)
		if pills[recs[i].Seq] && recs[i].Seq > snapA {
			if i == 0 || i+1 == len(kinds) || kinds[i-1].obs.Model != modelA || kinds[i+1].obs.Model != modelA {
				t.Fatal("the mid-run pill does not sit inside an A run")
			}
		}
		if k.kind == recRetire && (kinds[i-1].obs.Model != modelA || kinds[i+1].obs.Model != modelA) {
			t.Fatal("the retire does not sit inside an A run")
		}
		if k.obs.Serial == "crossover" && k.obs.Model == modelB && kinds[i-1].obs.Serial != "crossover" {
			t.Fatal("the crossover disk's B record does not follow its A failure")
		}
	}
	if longest <= maxApplyRun {
		t.Fatalf("longest same-model stretch %d, want one above the cap %d", longest, maxApplyRun)
	}
	var aBetween, bBetween bool
	for i, k := range kinds {
		if recs[i].Seq > snapB && recs[i].Seq <= snapA && k.kind != recCursor {
			aBetween = aBetween || k.obs.Model == modelA
			bBetween = bBetween || k.obs.Model == modelB
		}
	}
	if snapB >= snapA || !aBetween || !bBetween {
		t.Fatalf("snapshots at B %d, A %d: want both models' records between them", snapB, snapA)
	}

	// The follower takes the WAL in frames that cut across runs.
	follower, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	cursorMidFrame := false
	for k, rest := 0, recs; len(rest) > 0; k++ {
		size := min([]int{5, 333, 1, 97, 600, 41}[k%6], len(rest))
		for i := 1; i+1 < size; i++ {
			cursorMidFrame = cursorMidFrame || kinds[len(recs)-len(rest)+i].kind == recCursor
		}
		if err := follower.ApplyReplicated(rest[:size]); err != nil {
			t.Fatal(err)
		}
		rest = rest[size:]
	}
	if !cursorMidFrame {
		t.Fatal("no frame carried a cursor record mid-frame")
	}
	if got, want := follower.ReplicationResume(), recs[len(recs)-1].Seq; got != want {
		t.Fatalf("follower resume %d, want %d", got, want)
	}

	walOnly, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: copyTree(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer walOnly.Close()
	imageDir := copyTree(t, dir)
	snaps, err := filepath.Glob(filepath.Join(snapDir, snapPrefix+"*"+snapSuffix))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshot files %v (%v), want two", snaps, err)
	}
	for _, p := range snaps {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(imageDir, filepath.Base(p)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snapImage, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: imageDir})
	if err != nil {
		t.Fatal(err)
	}
	defer snapImage.Close()
	if walOnly.met.recoverySeconds.Value() <= 0 || snapImage.met.recoverySeconds.Value() <= 0 {
		t.Error("engine_recovery_seconds not set by recovery")
	}

	// Counters: the follower counts like the live engine; each image
	// replays every record its snapshots do not cover (cursors always)
	// and skips the pills among them.
	snapSeq := map[string]uint64{modelA: snapA, modelB: snapB}
	var walWant, snapWant applyCounts
	for i, k := range kinds {
		seq := recs[i].Seq
		covered := k.kind != recCursor && seq <= snapSeq[k.obs.Model]
		switch {
		case pills[seq]:
			walWant.skipped++
			if !covered {
				snapWant.skipped++
			}
		default:
			walWant.replayed++
			if !covered {
				snapWant.replayed++
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want applyCounts
	}{
		{"follower", countsOf(follower), countsOf(leader)},
		{"wal-only", countsOf(walOnly), walWant},
		{"snapshot+suffix", countsOf(snapImage), snapWant},
	} {
		if c.got != c.want {
			t.Errorf("%s counts %+v, want %+v", c.name, c.got, c.want)
		}
	}

	wantCur, wantRows, wantOK := leader.BackfillState()
	if !wantOK {
		t.Fatal("leader has no backfill resume point")
	}
	wantRoutes := routesOf(leader)
	if wantRoutes["crossover"] != modelB {
		t.Fatalf("leader routes the crossover disk to %q, want %q", wantRoutes["crossover"], modelB)
	}
	for _, e := range []struct {
		name string
		eng  *Engine
	}{{"follower", follower}, {"wal-only", walOnly}, {"snapshot+suffix", snapImage}} {
		for _, m := range []string{modelA, modelB} {
			var want, got bytes.Buffer
			if err := leader.DumpModel(m, &want); err != nil {
				t.Fatal(err)
			}
			if err := e.eng.DumpModel(m, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: model %s state differs from the leader's", e.name, m)
			}
		}
		if got := routesOf(e.eng); !maps.Equal(got, wantRoutes) {
			t.Errorf("%s: %d routes differ from the leader's %d", e.name, len(got), len(wantRoutes))
		}
		gotCur, gotRows, gotOK := e.eng.BackfillState()
		if !reflect.DeepEqual(gotCur, wantCur) || gotRows != wantRows || gotOK != wantOK {
			t.Errorf("%s backfill state (%+v, %d, %v), want (%+v, %d, %v)",
				e.name, gotCur, gotRows, gotOK, wantCur, wantRows, wantOK)
		}
	}
}
