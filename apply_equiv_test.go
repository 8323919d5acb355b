package orfdisk

import (
	"bytes"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"orfdisk/internal/replica"
)

// copyTree copies the regular files under src into a fresh dst,
// standing in for the disk image a crash would leave behind.
func copyTree(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// applyCounts is an engine's view of how many records it applied and
// rejected: engine_ingests_total / engine_ingest_errors_total for live,
// backfill and replicated records, the recovery pair for replay.
type applyCounts struct {
	ingests, ingestErrors, replayed, skipped uint64
}

func countsOf(e *Engine) applyCounts {
	return applyCounts{
		ingests:      e.met.ingests.Value(),
		ingestErrors: e.met.ingestErrors.Value(),
		replayed:     e.met.replayed.Value(),
		skipped:      e.met.replaySkipped.Value(),
	}
}

func routesOf(e *Engine) map[string]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return maps.Clone(e.modelOf)
}

// TestApplySourcesEquivalent holds all four record sources to one
// result. A single mixed stream — live observes with and without a
// model, single and batched, failure rows, retires, poison pills and
// backfill batches with cursors — is applied live on a leader while a
// follower replicates it. Two crash images are then recovered: the
// leader's WAL alone, and the follower's mid-stream snapshot plus the
// WAL suffix its truncation kept. Leader, follower and both recovered
// engines must hold byte-identical models, identical serial->model
// routes and the same backfill resume point, and must count every
// record the way its source prescribes.
func TestApplySourcesEquivalent(t *testing.T) {
	obs := engineStream(t, 61, 2)
	n := len(obs)
	if n < 2000 {
		t.Fatalf("stream too short: %d", n)
	}
	cfg := engineTestConfig()

	dirL, dirF := t.TempDir(), t.TempDir()
	leader, src := newLeader(t, dirL)
	defer leader.Close()
	defer src.Close()
	// Small follower segments so its snapshot pass really truncates the
	// WAL and the recovered image depends on the backfill cursor file.
	follower, err := NewEngine(EngineConfig{
		Predictor: cfg, DataDir: dirF, Follower: true, SegmentBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fl, err := replica.StartFollower(src.Addr(), replica.FollowerConfig{
		Applier: follower, RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	// The test mirrors the leader's routing memory so it can omit the
	// model whenever the leader is able to resolve it.
	routed := make(map[string]bool)
	var observes, failures uint64
	live := func(part []FleetObservation) {
		t.Helper()
		for k := 0; len(part) > 0; k++ {
			size := min(1+(k*7)%23, len(part))
			batch := append([]FleetObservation(nil), part[:size]...)
			for i := range batch {
				if routed[batch[i].Serial] && (k+i)%2 == 0 {
					batch[i].Model = ""
				}
			}
			var res []BatchResult
			if size == 1 {
				pred, err := leader.Ingest(batch[0])
				res = []BatchResult{{Prediction: pred, Err: err}}
			} else {
				res = leader.IngestBatch(batch)
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("live ingest of %s: %v", part[i].Serial, r.Err)
				}
				routed[part[i].Serial] = !part[i].Failed
				if part[i].Failed {
					failures++
				}
			}
			observes += uint64(size)
			part = part[size:]
		}
	}
	var cur BackfillCursor
	backfill := func(part []FleetObservation, checkpointEvery int) {
		t.Helper()
		for k := 0; len(part) > 0; k++ {
			size := min(200, len(part))
			var c *BackfillCursor
			if k%checkpointEvery == 0 {
				cur.Day, cur.Rows = part[size-1].Day, cur.Rows+int64(size)
				cur.Files = []BackfillFilePos{{Name: "q.csv", Rows: cur.Rows, Off: 100 * cur.Rows}}
				c = &cur
			}
			if err := leader.IngestBackfill(part[:size], c); err != nil {
				t.Fatal(err)
			}
			for _, o := range part[:size] {
				routed[o.Serial] = !o.Failed
			}
			observes += uint64(size)
			part = part[size:]
		}
	}
	retire := func() {
		t.Helper()
		for _, o := range obs {
			if routed[o.Serial] {
				if err := leader.Retire(o.Serial); err != nil {
					t.Fatal(err)
				}
				routed[o.Serial] = false
				return
			}
		}
		t.Fatal("no routed disk to retire")
	}
	// poison feeds the live apply a record the predictor rejects, as if
	// written by a binary with a different feature catalog. validate
	// stops such a row at the API, so it goes to the live feeder itself.
	poison := func(serial string) {
		t.Helper()
		bad := FleetObservation{Model: obs[0].Model, Observation: Observation{
			Serial: serial, Day: 1, Values: []float64{1, 2, 3},
		}}
		var it applyItem
		if err := leader.pool.Do(bad.Model, func(s *shardState) {
			items := []applyItem{{rec: walRecord{kind: recObserveV2, obs: bad}}}
			leader.logAndApply(s, items)
			it = items[0]
		}); err != nil {
			t.Fatal(err)
		}
		if it.err == nil || it.seq == 0 {
			t.Fatalf("poison pill: seq %d err %v, want a logged and rejected record", it.seq, it.err)
		}
		observes++
	}
	catchUp := func() {
		t.Helper()
		head := leader.WAL().NextSeq() - 1
		waitUntil(t, 30*time.Second, "follower catch-up", func() bool {
			return follower.ReplicationResume() == head
		})
	}

	live(obs[:n/4])
	backfill(obs[n/4:n/2], 2)
	retire()
	poison("poison-1")
	catchUp()
	if err := follower.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The pass must really truncate: the snapshot image then depends on
	// the backfill cursor file for its resume point.
	if oldest, err := follower.WAL().OldestSegment(); err != nil || oldest <= 1 {
		t.Fatalf("follower snapshot kept the WAL from seq %d (%v), want it truncated", oldest, err)
	}
	live(obs[n/2 : 3*n/4])
	backfill(obs[3*n/4:7*n/8], 3)
	poison("poison-2")
	retire()
	live(obs[7*n/8:])
	catchUp()
	if failures == 0 {
		t.Fatal("stream carried no failure rows")
	}

	walOnly, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: copyTree(t, dirL)})
	if err != nil {
		t.Fatal(err)
	}
	defer walOnly.Close()
	snapSuffix, err := NewEngine(EngineConfig{Predictor: cfg, DataDir: copyTree(t, dirF)})
	if err != nil {
		t.Fatal(err)
	}
	defer snapSuffix.Close()

	// Counting follows the source: every record that reached a shard
	// outside recovery counts in the ingest pair, whether it came live,
	// from backfill or over replication; replay counts in the recovery
	// pair. The leader's WAL-only image replays every record (cursors
	// included) and skips both pills; the snapshot image replays only
	// the suffix, which holds the second pill.
	records := leader.WAL().NextSeq() - 1
	liveWant := applyCounts{ingests: observes, ingestErrors: 2}
	for _, c := range []struct {
		name      string
		got, want applyCounts
	}{
		{"leader", countsOf(leader), liveWant},
		{"follower", countsOf(follower), liveWant},
		{"wal-only", countsOf(walOnly), applyCounts{replayed: records - 2, skipped: 2}},
	} {
		if c.got != c.want {
			t.Errorf("%s counts %+v, want %+v", c.name, c.got, c.want)
		}
	}
	if got := countsOf(snapSuffix); got.skipped != 1 || got.ingests != 0 || got.replayed == 0 {
		t.Errorf("snapshot+suffix counts %+v, want 1 skipped, some replayed, no ingests", got)
	}

	wantCur, wantRows, wantOK := leader.BackfillState()
	if !wantOK || wantRows == 0 {
		t.Fatalf("leader backfill state: ok %v rowsAfter %d, want rows after a cursor", wantOK, wantRows)
	}
	wantRoutes := routesOf(leader)
	models := leader.Models()
	for _, e := range []struct {
		name string
		eng  *Engine
	}{{"follower", follower}, {"wal-only", walOnly}, {"snapshot+suffix", snapSuffix}} {
		if got := e.eng.Models(); !reflect.DeepEqual(got, models) {
			t.Fatalf("%s models %v, want %v", e.name, got, models)
		}
		for _, m := range models {
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
