package orfdisk

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"orfdisk/internal/metrics"
	"orfdisk/internal/replica"
)

// walSegments lists a data dir's WAL segment names and first sequence
// numbers, in order.
func walSegments(t *testing.T, dataDir string) (names []string, firsts []uint64) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dataDir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, walSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, walSuffix), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		names, firsts = append(names, name), append(firsts, first)
	}
	return names, firsts
}

// TestSeedShipsOnlyUncoveredWAL: an empty follower's seed session pins
// the leader's retain floor at seq 1, so the snapshot pass inside Seed
// truncates nothing. The seed must still ship only the segments from
// the one holding that pass's cutoff through the sealed tail, and the
// installed follower must equal the leader bit for bit — including the
// backfill resume point, whose cursor record sits in a segment the
// seed leaves behind — and continue the stream identically once
// promoted.
//
// To put the cutoff mid-log, the test holds the second model's shard
// while the pass runs: the first model is snapshotted, then takes a
// burst of records spanning several segments before the pass reaches
// its truncation sweep, so the cutoff lands at the burst's first record.
func TestSeedShipsOnlyUncoveredWAL(t *testing.T) {
	obs := engineStream(t, 88, 2)
	n := len(obs)
	cfg := engineTestConfig()
	dirL := t.TempDir()
	leader, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: dirL, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src, err := replica.NewSource("127.0.0.1:0", replica.SourceConfig{
		WAL: leader.WAL(), SeedProvider: leader,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ingest := func(part []FleetObservation) {
		t.Helper()
		for k := 0; len(part) > 0; k++ {
			size := min(1+(k*5)%17, len(part))
			for i, r := range leader.IngestBatch(append([]FleetObservation(nil), part[:size]...)) {
				if r.Err != nil {
					t.Fatalf("ingest of %s: %v", part[i].Serial, r.Err)
				}
			}
			part = part[size:]
		}
	}

	// A truncated log: an empty follower cannot stream from seq 1.
	ingest(obs[:n/4])
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if oldest, err := leader.WAL().OldestSegment(); err != nil || oldest <= 1 {
		t.Fatalf("snapshot kept the WAL from %d (%v), want it truncated", oldest, err)
	}
	// Backfill with a cursor, ending in rows past it, then live records.
	var cur BackfillCursor
	bf := obs[n/4 : n/3]
	for k := 0; len(bf) > 0; k++ {
		size := min(40, len(bf))
		var c *BackfillCursor
		if len(bf) > size {
			cur.Day, cur.Rows = bf[size-1].Day, cur.Rows+int64(size)
			cur.Files = []BackfillFilePos{{Name: "h.csv", Rows: cur.Rows, Off: 64 * cur.Rows}}
			c = &cur
		}
		if err := leader.IngestBackfill(bf[:size], c); err != nil {
			t.Fatal(err)
		}
		bf = bf[size:]
	}
	leader.bf.mu.Lock()
	lastBackfillSeq := leader.bf.seq
	leader.bf.mu.Unlock()
	ingest(obs[n/3 : n/2])

	models := leader.Models()
	if len(models) != 2 {
		t.Fatalf("models %v, want two", models)
	}
	first, second := models[0], models[1]
	var burst []FleetObservation
	for _, o := range obs[n/2 : 3*n/4] {
		if o.Model == first {
			burst = append(burst, o)
		}
	}
	release := make(chan struct{})
	if err := leader.pool.Submit(second, func(*shardState) { <-release }); err != nil {
		t.Fatal(err)
	}
	encodes := leader.met.snapshotEncode.Count()

	follower, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	reg := metrics.NewRegistry()
	fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{
		Applier: follower, Seeder: follower, Metrics: reg, RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	// The seed's snapshot pass has written the first model and waits on
	// the second: the burst lands between the two, unsnapshotted.
	waitUntil(t, 30*time.Second, "the seed pass to snapshot the first model", func() bool {
		return leader.met.snapshotEncode.Count() > encodes
	})
	burstFrom := leader.WAL().NextSeq()
	ingest(burst)
	close(release)

	head := leader.WAL().NextSeq() - 1
	waitUntil(t, 60*time.Second, "re-seed and catch-up", func() bool {
		return follower.ReplicationResume() == head
	})
	if got := reg.Counter("replica_reseeds_total", "").Value(); got != 1 {
		t.Fatalf("replica_reseeds_total = %d, want 1", got)
	}
	leader.snapMu.Lock()
	cutoff := leader.snapCutoff
	leader.snapMu.Unlock()
	if cutoff != burstFrom {
		t.Fatalf("seed pass cutoff %d, want the burst's first record %d", cutoff, burstFrom)
	}

	// Expected: from the segment holding the cutoff through the tail.
	// The pinned floor kept every older segment on the leader's disk.
	names, firsts := walSegments(t, dirL)
	k := 0
	for k+1 < len(firsts) && firsts[k+1] <= cutoff {
		k++
	}
	if k == 0 || k == len(names)-1 {
		t.Fatalf("cutoff %d in segment %d of %d: want it mid-log", cutoff, k, len(names))
	}
	if lastBackfillSeq >= firsts[k] {
		t.Fatalf("backfill ends at %d, inside the shipped WAL from %d", lastBackfillSeq, firsts[k])
	}
	gotNames, _ := walSegments(t, follower.cfg.DataDir)
	if !slices.Equal(gotNames, names[k:]) {
		t.Fatalf("seed shipped %d WAL segments from %v, want the %d from %s",
			len(gotNames), gotNames[:min(1, len(gotNames))], len(names)-k, names[k])
	}
	for _, name := range gotNames {
		want, err := os.ReadFile(filepath.Join(dirL, walDirName, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(follower.cfg.DataDir, walDirName, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shipped segment %s differs from the leader's", name)
		}
	}

	// Bit for bit: models, routes and the backfill resume point.
	check := func(stage string) {
		t.Helper()
		for _, m := range models {
			var want, got bytes.Buffer
			if err := leader.DumpModel(m, &want); err != nil {
				t.Fatal(err)
			}
			if err := follower.DumpModel(m, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: model %s differs from the leader's", stage, m)
			}
		}
		if got, want := routesOf(follower), routesOf(leader); !maps.Equal(got, want) {
			t.Fatalf("%s: %d routes differ from the leader's %d", stage, len(got), len(want))
		}
		gc, gr, gok := follower.BackfillState()
		wc, wr, wok := leader.BackfillState()
		if !reflect.DeepEqual(gc, wc) || gr != wr || gok != wok || !wok || wr == 0 {
			t.Fatalf("%s: backfill state (%+v, %d, %v), leader (%+v, %d, %v)", stage, gc, gr, gok, wc, wr, wok)
		}
	}
	check("installed")

	// Promoted, the follower continues the stream as the leader does.
	fl.Close()
	follower.Promote()
	for _, o := range obs[3*n/4:] {
		want, werr := leader.Ingest(o)
		got, gerr := follower.Ingest(o)
		if (werr == nil) != (gerr == nil) || (werr == nil && !samePrediction(got, want)) {
			t.Fatalf("%s day %d after promotion: got (%+v, %v), leader (%+v, %v)",
				o.Serial, o.Day, got, gerr, want, werr)
		}
	}
	if got, want := follower.WAL().NextSeq(), leader.WAL().NextSeq(); got != want {
		t.Fatalf("promoted follower's next seq %d, leader's %d", got, want)
	}
	check("promoted")
}
