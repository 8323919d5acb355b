package orfdisk

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orfdisk/internal/engine"
	"orfdisk/internal/metrics"
	"orfdisk/internal/wal"
)

// Engine is the durable sharded serving core: each drive model gets a
// dedicated worker goroutine owning its Predictor (the paper's per-model
// independence, §4.1, made into the concurrency unit), fed by a bounded
// mailbox. Requests for different models never contend; requests for one
// model are serialized by its worker, so predictors need no locking.
//
// With a DataDir, the engine is crash-safe: every mutation is recorded
// in a write-ahead log before it is applied, and periodic per-model
// snapshots (atomic temp-file + rename, capturing the model AND the
// labeling queues) bound replay time. Recovery loads the newest
// snapshots and replays the WAL suffix; because predictor serialization
// includes the RNG streams, the recovered engine continues the exact
// stream an uninterrupted run would have produced.
//
// All methods are safe for concurrent use.
type Engine struct {
	cfg  EngineConfig
	pool *engine.Pool[*shardState]
	wal  *wal.WAL
	reg  *metrics.Registry
	met  engineMetrics
	log  *slog.Logger

	mu      sync.RWMutex
	modelOf map[string]string // serial -> drive model routing memory

	// frozen maps model -> *frozenSlot, the lock-free read path's
	// publication points (see predict.go). Slots are created with their
	// shards and never removed.
	frozen         sync.Map
	freezeEvery    int
	freezeInterval time.Duration

	// scratch recycles IngestBatch's grouping state (maps and index
	// slices) across calls; the per-call result slice still allocates
	// because it is handed to the caller. scoreScratch does the same for
	// ScoreBatch's gather/scatter state (see predict.go).
	scratch      sync.Pool
	scoreScratch sync.Pool

	// recovered seeds the shard factory during and after startup
	// recovery; read-only once NewEngine returns.
	recovered map[string]*shardState

	snapMu  sync.Mutex
	snapped map[string]uint64 // last snapshotted WAL seq per model

	// bf is the bulk-backfill cursor state (see backfill_engine.go).
	bf bfState

	// Replication state (see replicate.go). follower gates writes;
	// replApplied is the last leader sequence number durably applied;
	// leaderHead/leaderSent mirror the newest leader frame for lag
	// accounting, and lastFrame is the local receipt time of that frame
	// (clock-skew-free, for silence detection). readyMaxLag bounds the
	// catch-up lag /readyz accepts; readyMaxSilence bounds how long a
	// follower may hear nothing from its leader and still claim ready.
	follower        atomic.Bool
	replApplied     atomic.Uint64
	leaderHead      atomic.Uint64
	leaderSent      atomic.Int64
	lastFrame       atomic.Int64
	readyMaxLag     uint64
	readyMaxSilence time.Duration
	promoteMu       sync.Mutex
	onPromote       []func()

	// Synchronous commit (see replicate.go): with syncAcks > 0 a leader
	// write returns only after that many followers fsync-ack its WAL
	// sequence number, via the attached ackWaiter (the replication
	// source). replAddr is the source's listener address, reported in
	// /v1/replication so the routing tier can re-point followers.
	syncAcks       int
	syncAckTimeout time.Duration
	ackWaiter      atomic.Pointer[AckWaiter]
	replAddr       atomic.Value // string
	seedStats      atomic.Pointer[SeedStatser]

	stop      chan struct{}
	tickDone  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// ErrBusy reports that a shard's mailbox stayed full past the enqueue
// timeout; callers should shed the request (HTTP 503).
var ErrBusy = engine.ErrBusy

// EngineConfig configures NewEngine. Zero values select defaults.
type EngineConfig struct {
	// Predictor configures each per-model predictor.
	Predictor Config
	// DataDir enables durability: it holds per-model snapshots plus a
	// "wal" subdirectory. Empty means in-memory only (state is lost on
	// restart, exactly like the pre-engine Server).
	DataDir string
	// Mailbox is the per-model queue capacity (default 256).
	Mailbox int
	// EnqueueTimeout bounds how long an ingest blocks on a full
	// mailbox before failing with ErrBusy (default 50 ms).
	EnqueueTimeout time.Duration
	// SnapshotEvery, if positive and DataDir is set, snapshots all
	// models on this interval (in addition to the final snapshot taken
	// by Close).
	SnapshotEvery time.Duration
	// FreezeEvery is the read path's publication cadence: a shard
	// republishes its frozen scoring snapshot after this many applied
	// observations (default 256). Negative disables republication (the
	// construction-time snapshot is still published).
	FreezeEvery int
	// FreezeInterval additionally republishes when the published
	// snapshot is older than this and at least one observation has been
	// applied since (default 1s; negative disables the time trigger).
	FreezeInterval time.Duration
	// SegmentBytes, SyncEvery and SyncInterval tune the WAL (see
	// internal/wal.Options); zero selects its defaults.
	SegmentBytes int64
	SyncEvery    int
	SyncInterval time.Duration
	// Follower starts the engine as a read replica: writes fail with
	// ErrNotLeader, and the engine implements replica.Applier so a
	// replication client can feed it leader records (see replicate.go).
	// Requires DataDir (acks promise durability). Promote flips the
	// engine to a leader at runtime.
	Follower bool
	// ReadyMaxLag is the replication lag (in records) beyond which a
	// follower reports not-ready (default 256). Leaders ignore it.
	ReadyMaxLag uint64
	// ReadyMaxSilence is how long a follower may go without hearing any
	// leader frame (records or heartbeat) before /readyz reports
	// not-ready (default 15 s). A silent partition freezes the observed
	// leader head, so lag alone reads as zero exactly when the replica
	// is at its stalest; silence is the signal that catches it. Leaders
	// ignore it.
	ReadyMaxSilence time.Duration
	// SyncAcks, when positive, makes leader writes synchronous: Ingest,
	// IngestBatch and Retire return only after this many followers have
	// fsync-acknowledged the write's WAL records (via the AckWaiter
	// attached with SetAckWaiter). A write that times out waiting
	// returns ErrSyncUnacked — durable locally, indeterminate across
	// the group. Requires DataDir. 0 keeps replication asynchronous.
	SyncAcks int
	// SyncAckTimeout bounds one synchronous-commit wait (default 5 s).
	SyncAckTimeout time.Duration
	// Metrics receives the engine's instrumentation (engine_*, wal_*
	// and per-model families; the HTTP layer adds http_* when serving).
	// Nil creates a private registry, reachable via MetricsRegistry.
	Metrics *metrics.Registry
	// Logger receives structured engine events (recovery, snapshots,
	// replay skips). Nil discards them.
	Logger *slog.Logger
}

type shardState struct {
	p *Predictor
	// slot is the model's read-path publication point; sinceFreeze and
	// lastFreeze drive the republication cadence. Only the shard's
	// worker touches sinceFreeze/lastFreeze (readers touch the slot's
	// atomics only).
	slot        *frozenSlot
	sinceFreeze int
	lastFreeze  time.Time
	// lastSeq is the WAL sequence number of the last record applied to
	// this shard. Only the shard's worker touches it.
	lastSeq uint64
	// firstUnsnapped is the lowest WAL sequence number applied to this
	// shard since its last snapshot (0 = every applied record is
	// covered by a snapshot). It is the shard's contribution to the WAL
	// truncation cutoff. Only the shard's worker touches it.
	firstUnsnapped uint64
	// Worker scratch reused across batches so the steady-state path does
	// not allocate per observation: the WAL framing buffer and the
	// records handed to applyRecords. Only the shard's worker touches
	// these.
	frame walBatch
	items []applyItem
}

// stage loads one shard's slice of batch into the worker's reusable
// item scratch as records of the given kind. first is the WAL sequence
// number of batch[0] when the whole batch is already durable (backfill),
// 0 when the items are yet to be appended.
func (s *shardState) stage(batch []FleetObservation, idxs []int, kind byte, first uint64) []applyItem {
	s.items = s.items[:0]
	for _, i := range idxs {
		it := applyItem{rec: walRecord{kind: kind, obs: batch[i]}}
		if first != 0 {
			it.seq = first + uint64(i)
		}
		s.items = append(s.items, it)
	}
	return s.items
}

// unstage drops the scratch's references to the caller's observations.
func (s *shardState) unstage() { clear(s.items) }

// engineMetrics is the engine-level instrument set (the pool and WAL
// register their own families on the same registry).
type engineMetrics struct {
	ingests         *metrics.Counter
	ingestErrors    *metrics.Counter
	snapshots       *metrics.Counter
	snapshotErrors  *metrics.Counter
	snapshotSeconds *metrics.Histogram
	snapshotEncode  *metrics.Histogram
	snapshotBytes   *metrics.GaugeVec
	replayed        *metrics.Counter
	replaySkipped   *metrics.Counter
	freezes         *metrics.Counter
	predictRequests *metrics.Counter
	predictSeconds  *metrics.Histogram
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	return engineMetrics{
		ingests:         reg.Counter("engine_ingests_total", "Observations applied on shard workers outside recovery (live, backfill and replicated records)."),
		ingestErrors:    reg.Counter("engine_ingest_errors_total", "Observations that failed on a shard worker outside recovery (WAL append or predictor error)."),
		snapshots:       reg.Counter("engine_snapshots_total", "Completed engine snapshot passes."),
		snapshotErrors:  reg.Counter("engine_snapshot_errors_total", "Failed engine snapshot passes."),
		snapshotSeconds: reg.Histogram("engine_snapshot_seconds", "Wall time of one snapshot pass (all models)."),
		snapshotEncode:  reg.Histogram("engine_snapshot_encode_seconds", "Wall time of one model's snapshot encode+write (parallel-compressed ORF2)."),
		snapshotBytes:   reg.GaugeVec("engine_snapshot_bytes", "Bytes written by the most recent snapshot pass, by on-disk format.", "format"),
		replayed:        reg.Counter("engine_recovery_replayed_records_total", "WAL records replayed during crash recovery."),
		replaySkipped:   reg.Counter("engine_recovery_skipped_records_total", "WAL records skipped during recovery because the predictor rejected them (poison pills)."),
		freezes:         reg.Counter("engine_frozen_publishes_total", "Frozen scoring snapshots published for the lock-free read path."),
		predictRequests: reg.Counter("predict_requests_total", "Read-path scoring requests served from frozen snapshots (Score and ScoreBatch calls)."),
		predictSeconds:  reg.Histogram("predict_seconds", "Wall time of one read-path scoring request (single or batch)."),
	}
}

// noopLogHandler discards every record (log/slog has no stdlib discard
// handler until Go 1.24).
type noopLogHandler struct{}

func (noopLogHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopLogHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopLogHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopLogHandler{} }
func (noopLogHandler) WithGroup(string) slog.Handler             { return noopLogHandler{} }

// NewEngine creates an engine, running crash recovery first when
// cfg.DataDir is set.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Follower && cfg.DataDir == "" {
		return nil, fmt.Errorf("orfdisk: follower mode requires a DataDir (acks promise durability)")
	}
	if cfg.SyncAcks > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("orfdisk: SyncAcks requires a DataDir (synchronous commit replicates the WAL)")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(noopLogHandler{})
	}
	e := &Engine{
		cfg:       cfg,
		reg:       reg,
		met:       newEngineMetrics(reg),
		log:       logger,
		modelOf:   make(map[string]string),
		recovered: make(map[string]*shardState),
		snapped:   make(map[string]uint64),
	}
	e.freezeEvery = cfg.FreezeEvery
	if e.freezeEvery == 0 {
		e.freezeEvery = 256
	}
	e.freezeInterval = cfg.FreezeInterval
	if e.freezeInterval == 0 {
		e.freezeInterval = time.Second
	}
	e.follower.Store(cfg.Follower)
	e.readyMaxLag = cfg.ReadyMaxLag
	if e.readyMaxLag == 0 {
		e.readyMaxLag = 256
	}
	e.readyMaxSilence = cfg.ReadyMaxSilence
	if e.readyMaxSilence == 0 {
		e.readyMaxSilence = 15 * time.Second
	}
	e.syncAcks = cfg.SyncAcks
	e.syncAckTimeout = cfg.SyncAckTimeout
	if e.syncAckTimeout <= 0 {
		e.syncAckTimeout = 5 * time.Second
	}
	e.pool = engine.New(engine.Config{
		Mailbox:        cfg.Mailbox,
		EnqueueTimeout: cfg.EnqueueTimeout,
		Metrics:        reg,
	}, e.newShard)
	e.registerModelGauges()
	e.registerFrozenGauges()
	e.registerReplicaGauges()
	if cfg.DataDir != "" {
		if err := e.recover(); err != nil {
			e.pool.Close()
			if e.wal != nil {
				e.wal.Close()
			}
			return nil, err
		}
		// Republish every recovered shard's snapshot so readers start
		// from post-replay state, not the construction-time freeze.
		if err := e.refreezeAll(); err != nil {
			e.pool.Close()
			e.wal.Close()
			return nil, err
		}
		// A follower resumes replication right after its own recovery
		// point: snapshots and the WAL all carry leader sequence
		// numbers, so NextSeq-1 IS the last durably applied leader
		// record.
		e.replApplied.Store(e.wal.NextSeq() - 1)
		if cfg.SnapshotEvery > 0 {
			e.stop = make(chan struct{})
			e.tickDone = make(chan struct{})
			go e.snapshotLoop(cfg.SnapshotEvery)
		}
	}
	return e, nil
}

// registerModelGauges surfaces per-model predictor counters from
// Stats() as scrape-time gauge families labeled by drive model.
func (e *Engine) registerModelGauges() {
	type statFn struct {
		name, help string
		fn         func(ModelStats) float64
	}
	for _, s := range []statFn{
		{"engine_model_updates", "Online forest updates absorbed, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Updates) }},
		{"engine_model_positives_seen", "Positive (failure) samples learned, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.PosSeen) }},
		{"engine_model_negatives_seen", "Negative samples learned, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.NegSeen) }},
		{"engine_model_trees_replaced", "Trees discarded and regrown by online unlearning, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Replaced) }},
		{"engine_model_nodes", "Total tree nodes in the forest, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Nodes) }},
		{"engine_model_tracked_disks", "Disks with live labeling queues, per drive model.",
			func(ms ModelStats) float64 { return float64(ms.Tracked) }},
	} {
		s := s
		e.reg.GaugeFuncVec(s.name, s.help, []string{"model"},
			func(emit func(v float64, labelValues ...string)) {
				for _, ms := range e.Stats() {
					emit(s.fn(ms), ms.Model)
				}
			})
	}
}

// MetricsRegistry returns the registry holding the engine's metric
// families (engine_*, wal_*, engine_model_*); serve its Handler — or
// mount Server.Handler, which includes it at GET /metrics.
func (e *Engine) MetricsRegistry() *metrics.Registry { return e.reg }

func (e *Engine) newShard(model string) *shardState {
	st, ok := e.recovered[model]
	if !ok {
		st = &shardState{p: NewPredictor(e.cfg.Predictor)}
	}
	// Publish the first frozen snapshot before the shard serves anything:
	// the read path must never find a live shard without one.
	st.slot = e.slotFor(model)
	e.publish(st)
	return st
}

func (e *Engine) snapshotLoop(every time.Duration) {
	defer close(e.tickDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			// Best effort; the next tick (or Close) retries, and an
			// unsnapshotted suffix stays covered by the WAL.
			if err := e.Snapshot(); err != nil {
				e.log.Error("periodic snapshot failed", "err", err)
			}
		}
	}
}

// resolveModel fills in obs.Model from the engine's routing memory,
// mirroring Fleet.Ingest's rules. It only reads: a first-seen route is
// committed by applyRecords once the observation is durably applied, so
// a shed or failed observation leaves no phantom route behind (recovery
// could never reconstruct one — the WAL has no record of it). pending
// holds routes earlier in the same batch that have not been applied yet.
func (e *Engine) resolveModel(obs *FleetObservation, pending map[string]string) error {
	e.mu.RLock()
	known, ok := e.modelOf[obs.Serial]
	e.mu.RUnlock()
	if !ok {
		known, ok = pending[obs.Serial]
	}
	if obs.Model == "" {
		if !ok {
			return fmt.Errorf("orfdisk: observation for %q has no model", obs.Serial)
		}
		obs.Model = known
	} else if ok && known != obs.Model {
		return fmt.Errorf("orfdisk: disk %q changed model %q -> %q", obs.Serial, known, obs.Model)
	}
	return nil
}

func (e *Engine) validate(obs FleetObservation) error {
	if obs.Serial == "" {
		return fmt.Errorf("orfdisk: observation has no serial")
	}
	if len(obs.Values) != CatalogSize() {
		return fmt.Errorf("orfdisk: observation carries %d values, want the %d-feature catalog",
			len(obs.Values), CatalogSize())
	}
	return nil
}

// applyItem is one WAL record on its way into a shard's predictor: its
// sequence number (0 without a DataDir) and decoded body, plus the
// outcome applyRecords fills in.
type applyItem struct {
	seq  uint64
	rec  walRecord
	pred Prediction
	err  error
}

// applyRecords is the engine's one learning step. Every record reaches a
// Predictor through it, whichever source fed it — live ingest, recovery
// replay, replication or backfill — so live, replayed, replicated and
// backfilled state are the same function of the same records. It runs
// on the shard's worker, with the records durable and in WAL order, and
// alone owns the per-record bookkeeping:
//
//   - lastSeq and firstUnsnapped, the snapshot and truncation marks;
//   - the apply itself: Ingest for observe records, Absorb for backfill
//     rows (identical state, no scoring), Retire for retire records;
//   - poison pills: a record the predictor rejects is logged and skipped,
//     its error left in the item. Its WAL entry persists and every
//     replay rejects it the same deterministic way, so skipping keeps
//     every copy of the state identical, where aborting would fail every
//     restart on the same record;
//   - counting: inside recover, applied and skipped records count as
//     replayed/skipped; every other source counts each observe record
//     in engine_ingests_total and each rejection in
//     engine_ingest_errors_total;
//   - routes: serial->model routes commit, and failed or retired disks'
//     routes are forgotten, in record order under one lock. A rejected
//     record commits nothing, like a shed one: a snapshot could never
//     reconstruct its route;
//   - the freeze cadence of the read path, once per call.
func (e *Engine) applyRecords(s *shardState, items []applyItem, recovering bool) {
	var applied, rejected, retired uint64
	for i := range items {
		it := &items[i]
		if it.seq != 0 {
			s.lastSeq = it.seq
			if s.firstUnsnapped == 0 {
				s.firstUnsnapped = it.seq
			}
		}
		switch it.rec.kind {
		case recRetire:
			s.p.Retire(it.rec.obs.Serial)
			retired++
			continue
		case recObserveBF:
			it.err = s.p.Absorb(it.rec.obs.Observation)
		default:
			it.pred, it.err = s.p.Ingest(it.rec.obs.Observation)
		}
		if it.err != nil {
			rejected++
			e.log.Warn("predictor rejected record; skipping", "seq", it.seq,
				"model", it.rec.obs.Model, "serial", it.rec.obs.Serial, "err", it.err)
			continue
		}
		applied++
	}
	if recovering {
		e.met.replayed.Add(applied + retired)
		e.met.replaySkipped.Add(rejected)
	} else {
		e.met.ingests.Add(applied + rejected)
		e.met.ingestErrors.Add(rejected)
	}
	e.mu.Lock()
	for i := range items {
		it := &items[i]
		switch {
		case it.err != nil: // rejected: no route
		case it.rec.kind == recRetire || it.rec.obs.Failed:
			delete(e.modelOf, it.rec.obs.Serial)
		default:
			e.modelOf[it.rec.obs.Serial] = it.rec.obs.Model
		}
	}
	e.mu.Unlock()
	if applied > 0 {
		e.noteApplied(s, int(applied))
	}
}

// logAndApply is the live feeder: on the shard's worker it frames the
// items into one wal.AppendBatch (one write, one group-commit check),
// stamps their sequence numbers, then applies them. A WAL failure fails
// every item — none of them is durable, so none is applied.
func (e *Engine) logAndApply(s *shardState, items []applyItem) {
	if e.wal != nil {
		s.frame.reset()
		for i := range items {
			s.frame.add(items[i].rec)
		}
		first, err := e.wal.AppendBatch(s.frame.payloads())
		if err != nil {
			for i := range items {
				items[i].err = err
				if items[i].rec.kind != recRetire {
					e.met.ingestErrors.Inc()
				}
			}
			return
		}
		for i := range items {
			items[i].seq = first + uint64(i)
		}
	}
	e.applyRecords(s, items, false)
}

// Ingest routes one observation to its model's shard and returns the
// live prediction: a one-item IngestBatch. It blocks until the shard has
// processed the observation; under overload it fails fast with ErrBusy.
func (e *Engine) Ingest(obs FleetObservation) (Prediction, error) {
	r := e.IngestBatch([]FleetObservation{obs})[0]
	return r.Prediction, r.Err
}

// BatchResult is one observation's outcome in IngestBatch.
type BatchResult struct {
	Prediction Prediction
	Err        error
}

// batchScratch is IngestBatch's recycled grouping state. groups maps a
// model to a slot in idxs so the index slices themselves survive reuse.
type batchScratch struct {
	groups  map[string]int
	order   []string
	idxs    [][]int
	pending map[string]string
}

func (e *Engine) getScratch() *batchScratch {
	if sc, ok := e.scratch.Get().(*batchScratch); ok {
		clear(sc.groups)
		clear(sc.pending)
		sc.order = sc.order[:0]
		for k := range sc.idxs {
			sc.idxs[k] = sc.idxs[k][:0]
		}
		return sc
	}
	return &batchScratch{
		groups:  make(map[string]int),
		pending: make(map[string]string),
	}
}

// group appends batch index i to model's group, keeping first-seen
// model order and per-model batch order.
func (sc *batchScratch) group(model string, i int) {
	k, ok := sc.groups[model]
	if !ok {
		k = len(sc.order)
		sc.groups[model] = k
		sc.order = append(sc.order, model)
		if k == len(sc.idxs) {
			sc.idxs = append(sc.idxs, nil)
		}
	}
	sc.idxs[k] = append(sc.idxs[k], i)
}

// IngestBatch fans a slice of observations out to their model shards
// and gathers the replies. Observations for the same model are applied
// in slice order; distinct models proceed in parallel. Each entry
// succeeds or fails independently.
func (e *Engine) IngestBatch(batch []FleetObservation) []BatchResult {
	res := make([]BatchResult, len(batch))
	if e.follower.Load() {
		for i := range res {
			res[i].Err = ErrNotLeader
		}
		return res
	}
	sc := e.getScratch()
	// sc.pending carries first-seen routes from earlier entries of this
	// batch so a later entry can omit the model, without committing
	// anything to routing memory before the observations are applied.
	for i := range batch {
		if err := e.validate(batch[i]); err != nil {
			res[i].Err = err
			continue
		}
		if err := e.resolveModel(&batch[i], sc.pending); err != nil {
			res[i].Err = err
			continue
		}
		sc.pending[batch[i].Serial] = batch[i].Model
		sc.group(batch[i].Model, i)
	}
	// Synchronous commit waits once per batch, on the highest sequence
	// number any group logged; the slice is only allocated when the
	// mode is on so the async path stays allocation-free here.
	var maxSeqs []uint64
	if e.syncAcks > 0 {
		maxSeqs = make([]uint64, len(sc.order))
	}
	var wg sync.WaitGroup
	for k, model := range sc.order {
		k, idxs := k, sc.idxs[k]
		wg.Add(1)
		err := e.pool.Submit(model, func(s *shardState) {
			defer wg.Done()
			items := s.stage(batch, idxs, recObserveV2, 0)
			e.logAndApply(s, items)
			for j, i := range idxs {
				res[i] = BatchResult{Prediction: items[j].pred, Err: items[j].err}
			}
			s.unstage()
			if maxSeqs != nil {
				maxSeqs[k] = s.lastSeq
			}
		})
		if err != nil {
			wg.Done()
			for _, i := range idxs {
				res[i].Err = err
			}
		}
	}
	wg.Wait()
	e.scratch.Put(sc)
	if maxSeqs != nil {
		var maxSeq uint64
		anyOK := false
		for i := range res {
			if res[i].Err == nil {
				anyOK = true
				break
			}
		}
		for _, s := range maxSeqs {
			if s > maxSeq {
				maxSeq = s
			}
		}
		if anyOK && maxSeq > 0 {
			if err := e.waitSyncAcks(maxSeq); err != nil {
				// Every record IS durable locally; the acknowledged-
				// replication guarantee is what failed, so every item
				// that would otherwise report success reports that.
				for i := range res {
					if res[i].Err == nil {
						res[i].Err = err
					}
				}
			}
		}
	}
	return res
}

// Retire drops a disk (planned decommission) from its model's shard.
// Unknown serials are a no-op.
func (e *Engine) Retire(serial string) error {
	if e.follower.Load() {
		return ErrNotLeader
	}
	e.mu.RLock()
	model, ok := e.modelOf[serial]
	e.mu.RUnlock()
	if !ok {
		return nil
	}
	var it applyItem
	if err := e.pool.Do(model, func(s *shardState) {
		obs := FleetObservation{Model: model, Observation: Observation{Serial: serial}}
		s.items = append(s.items[:0], applyItem{rec: walRecord{kind: recRetire, obs: obs}})
		e.logAndApply(s, s.items)
		it = s.items[0]
		s.unstage()
	}); err != nil {
		return err
	}
	if it.err != nil {
		return it.err
	}
	return e.waitSyncAcks(it.seq)
}

// Models returns the drive models with live shards, sorted.
func (e *Engine) Models() []string { return e.pool.Keys() }

// Stats reports per-model forest statistics across all shards.
func (e *Engine) Stats() []ModelStats {
	var out []ModelStats
	for _, model := range e.pool.Keys() {
		var ms ModelStats
		if err := e.pool.Query(model, func(s *shardState) {
			st := s.p.Stats()
			ms = ModelStats{
				Model:    model,
				Updates:  st.Updates,
				PosSeen:  st.PosSeen,
				NegSeen:  st.NegSeen,
				Replaced: st.Replaced,
				Nodes:    st.Nodes,
				Tracked:  s.p.TrackedDisks(),
			}
		}); err != nil {
			continue
		}
		out = append(out, ms)
	}
	return out
}

// Importance returns a model's current feature importance ranking, or
// ok=false if the model has no shard.
func (e *Engine) Importance(model string) (imp []FeatureImportance, ok bool) {
	err := e.pool.Query(model, func(s *shardState) {
		imp = s.p.FeatureImportance()
	})
	return imp, err == nil
}

// Snapshot atomically persists every shard's full state (model +
// labeling queues) and truncates the WAL up to the lowest sequence
// number not covered by a snapshot. A no-op without a DataDir.
func (e *Engine) Snapshot() error {
	if e.wal == nil {
		return nil
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	start := time.Now()
	models := e.pool.Keys()
	if len(models) == 0 {
		return nil
	}
	var totalBytes int64
	for _, model := range models {
		var (
			seq   uint64
			bytes int64
			serr  error
		)
		if err := e.pool.Query(model, func(s *shardState) {
			seq = s.lastSeq
			if prev, ok := e.snapped[model]; ok && prev == seq {
				return // unchanged since last snapshot
			}
			encStart := time.Now()
			bytes, serr = writeSnapshot(e.cfg.DataDir, model, s)
			e.met.snapshotEncode.Observe(time.Since(encStart).Seconds())
			if serr == nil {
				// Everything applied so far is covered; records the
				// worker applies after this closure re-arm it.
				s.firstUnsnapped = 0
			}
		}); err != nil {
			e.met.snapshotErrors.Inc()
			return err
		}
		if serr != nil {
			e.met.snapshotErrors.Inc()
			e.log.Error("snapshot failed", "model", model, "err", serr)
			return serr
		}
		e.snapped[model] = seq
		totalBytes += bytes
	}
	// Truncation cutoff: the smallest WAL sequence number some shard has
	// applied but not yet snapshotted. An idle shard contributes nothing
	// (its whole history is covered by its snapshot), so it can no
	// longer pin the WAL at its ancient lastSeq while busy models grow
	// the log without bound. The NextSeq fallback is captured BEFORE the
	// read-back sweep below: appends and these reads serialize on each
	// shard's worker, so a record applied after its shard was read
	// carries a sequence number at or above the fallback, keeping the
	// cutoff conservative.
	cutoff := e.wal.NextSeq()
	for _, model := range models {
		if err := e.pool.Query(model, func(s *shardState) {
			if s.firstUnsnapped != 0 && s.firstUnsnapped < cutoff {
				cutoff = s.firstUnsnapped
			}
		}); err != nil {
			e.met.snapshotErrors.Inc()
			return err
		}
	}
	// A backfill batch between its WAL append and its shard applies is
	// durable but covered by nothing; its floor caps the cutoff (see
	// bfState.pendingLow).
	e.bf.mu.Lock()
	if e.bf.pendingLow != 0 && e.bf.pendingLow < cutoff {
		cutoff = e.bf.pendingLow
	}
	e.bf.mu.Unlock()
	if err := e.wal.Sync(); err != nil {
		e.met.snapshotErrors.Inc()
		return err
	}
	// The truncation below may delete the WAL suffix holding the newest
	// backfill cursor record, so the cursor state must reach its own
	// durable file first. (Rows appended between this write and the
	// cutoff capture survive in the WAL and re-count during replay;
	// bf.seq keeps the two sources from double-counting.)
	if err := e.writeBackfillCursorFile(); err != nil {
		e.met.snapshotErrors.Inc()
		return err
	}
	if err := e.wal.TruncateBefore(cutoff); err != nil {
		e.met.snapshotErrors.Inc()
		return err
	}
	e.met.snapshots.Inc()
	e.met.snapshotSeconds.Observe(time.Since(start).Seconds())
	e.met.snapshotBytes.With(snapshotFormat).Set(float64(totalBytes))
	e.log.Info("snapshot complete",
		"models", len(models), "bytes", totalBytes,
		"cutoff", cutoff, "elapsed", time.Since(start))
	return nil
}

// Close drains all shard mailboxes, takes a final snapshot (when
// durable) and releases the WAL. The engine is unusable afterwards.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.stop != nil {
			close(e.stop)
			<-e.tickDone
		}
		// Snapshot before closing the pool (snapshots run on shard
		// workers). Any request that lands between the snapshot and
		// the pool close is still covered by the WAL suffix.
		if e.wal != nil {
			e.closeErr = e.Snapshot()
		}
		e.pool.Close()
		if e.wal != nil {
			if err := e.wal.Close(); e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}

// --- recovery ---

const (
	snapMagic  = "OSN1"
	snapSuffix = ".snap"
	snapPrefix = "snap-"
	// snapshotFormat labels engine_snapshot_bytes with the forest
	// serialization the snapshot pass currently writes (the OSN1
	// envelope wraps an ORF2 flate-framed forest; see internal/core).
	snapshotFormat = "orf2-flate"
)

func (e *Engine) recover() error {
	dir := e.cfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// A crash mid-seed-install leaves a commit marker (and possibly a
	// half-swapped file set); finish or discard it before reading any
	// state files (see reseed.go).
	if err := e.completeSeedInstall(); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	snapSeq := make(map[string]uint64)
	var maxSnap uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		model, st, err := loadSnapshot(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("orfdisk: loading snapshot %s: %w", name, err)
		}
		e.recovered[model] = st
		snapSeq[model] = st.lastSeq
		e.snapped[model] = st.lastSeq
		if st.lastSeq > maxSnap {
			maxSnap = st.lastSeq
		}
	}
	w, err := wal.Open(wal.Options{
		Dir:          filepath.Join(dir, "wal"),
		SegmentBytes: e.cfg.SegmentBytes,
		SyncEvery:    e.cfg.SyncEvery,
		SyncInterval: e.cfg.SyncInterval,
		Metrics:      e.reg,
	})
	if err != nil {
		return err
	}
	e.wal = w

	// Materialize snapshotted shards and rebuild serial->model routing
	// from their queue membership (a disk has a live queue iff it is
	// routed, so the two stay in lockstep).
	for model := range e.recovered {
		if err := e.pool.Do(model, func(s *shardState) {
			for _, serial := range s.p.TrackedSerials() {
				e.modelOf[serial] = model
			}
		}); err != nil {
			return err
		}
	}

	// Seed the backfill cursor from the file the last snapshot persisted
	// (if any); replayed backfill records with higher sequence numbers
	// advance it below.
	if err := e.loadBackfillCursorFile(); err != nil {
		return err
	}

	// Replay the WAL suffix. Records at or below a model's snapshot
	// sequence are already captured by that snapshot. Backfill cursor
	// accounting runs FIRST, before the snapshot skip: a backfill row a
	// model snapshot covers still counts toward rowsAfter when the
	// cursor file predates that snapshot (crash between the two writes).
	err = w.Replay(func(seq uint64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("orfdisk: WAL record at seq %d: %w", seq, err)
		}
		e.noteResumeRecord(seq, rec)
		if rec.kind == recCursor {
			e.met.replayed.Inc()
			return nil
		}
		if seq <= snapSeq[rec.obs.Model] {
			return nil
		}
		return e.applyDurable(seq, rec, true)
	})
	if err != nil {
		return err
	}
	// Never reuse sequence numbers a snapshot already accounts for.
	w.SkipTo(maxSnap + 1)
	e.log.Info("recovery complete",
		"snapshots", len(e.recovered),
		"replayed", e.met.replayed.Value(),
		"skipped", e.met.replaySkipped.Value())
	return nil
}

// applyDurable is the replay and replication feeder: it applies one
// decoded, already-durable record on its model's shard, synchronously,
// so records apply in WAL order.
func (e *Engine) applyDurable(seq uint64, rec walRecord, recovering bool) error {
	return e.pool.Do(rec.obs.Model, func(s *shardState) {
		s.items = append(s.items[:0], applyItem{seq: seq, rec: rec})
		e.applyRecords(s, s.items, recovering)
		s.unstage()
	})
}

func snapName(model string) string {
	return snapPrefix + hex.EncodeToString([]byte(model)) + snapSuffix
}

func writeSnapshot(dir, model string, s *shardState) (int64, error) {
	final := filepath.Join(dir, snapName(model))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	var size int64
	werr := func() error {
		if _, err := io.WriteString(bw, snapMagic); err != nil {
			return err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], s.lastSeq)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(len(model)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(bw, model); err != nil {
			return err
		}
		if err := s.p.SaveState(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		size, err = f.Seek(0, io.SeekCurrent)
		return err
	}()
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return 0, werr
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	// Persist the rename itself (best effort; not all filesystems
	// support directory fsync).
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	return size, nil
}

func loadSnapshot(path string) (model string, st *shardState, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return "", nil, err
	}
	if string(head) != snapMagic {
		return "", nil, fmt.Errorf("bad snapshot magic %q", head)
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return "", nil, err
	}
	lastSeq := binary.LittleEndian.Uint64(buf[:])
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return "", nil, err
	}
	n := binary.LittleEndian.Uint64(buf[:])
	if n > 1<<16 {
		return "", nil, fmt.Errorf("corrupt snapshot (model name of %d bytes)", n)
	}
	nameBuf := make([]byte, n)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return "", nil, err
	}
	p, err := LoadPredictorState(br)
	if err != nil {
		return "", nil, err
	}
	return string(nameBuf), &shardState{p: p, lastSeq: lastSeq}, nil
}

// --- WAL record encoding ---

const (
	recObserve   = 1 // legacy fixed-width observe record (decode only)
	recRetire    = 2
	recObserveV2 = 3 // varint-packed observe record (current writer)
	recObserveBF = 4 // backfill observe: v2 body, applied via Absorb and counted by the resume cursor
	recCursor    = 5 // backfill progress cursor (see backfill_engine.go)
)

type walRecord struct {
	kind byte
	obs  FleetObservation
	cur  *BackfillCursor // recCursor records only
}

func encodeObserveRecord(obs FleetObservation) []byte {
	n := 1 + 4 + len(obs.Model) + 4 + len(obs.Serial) + 8 + 1 + 4 + 8*len(obs.Values)
	return appendObserveRecordKind(make([]byte, 0, n), obs, recObserveV2)
}

// appendRecord frames rec onto buf in the current writer's format: the
// inverse of decodeRecord for every kind the engine writes (legacy
// fixed-width observe records are decode-only).
func appendRecord(buf []byte, rec walRecord) []byte {
	switch rec.kind {
	case recObserveV2, recObserveBF:
		return appendObserveRecordKind(buf, rec.obs, rec.kind)
	case recRetire:
		buf = append(buf, recRetire)
		buf = appendString(buf, rec.obs.Model)
		return appendString(buf, rec.obs.Serial)
	case recCursor:
		return appendCursorRecord(buf, *rec.cur)
	}
	panic(fmt.Sprintf("orfdisk: no writer for WAL record kind %d", rec.kind))
}

// walBatch frames a run of records into one reused buffer for a single
// wal.AppendBatch, so hot paths do not allocate per record. The zero
// value is ready to use.
type walBatch struct {
	buf  []byte
	ends []int
	recs [][]byte
}

func (b *walBatch) reset() { b.buf, b.ends = b.buf[:0], b.ends[:0] }

func (b *walBatch) add(rec walRecord) {
	b.buf = appendRecord(b.buf, rec)
	b.ends = append(b.ends, len(b.buf))
}

// payloads slices the buffer into one payload per added record, valid
// until the next reset.
func (b *walBatch) payloads() [][]byte {
	b.recs = b.recs[:0]
	start := 0
	for _, end := range b.ends {
		b.recs = append(b.recs, b.buf[start:end])
		start = end
	}
	return b.recs
}

// appendObserveRecordKind frames an observe record onto buf under an
// explicit kind byte: recObserveV2 for the live path, recObserveBF for
// backfill rows (same wire format, distinct kind so the resume cursor
// counts only its own rows). It writes the v2 format: varint header
// fields, then each value as a length byte (0-8) plus that many
// significant bytes of the value's byte-reversed float bits. The
// reversal moves the near-universal small-integer SMART values' zero
// mantissa bytes to the top, so most values pack into 1-4 bytes instead
// of 8: typical records shrink >2x, which halves WAL volume, write()
// time and replay I/O. Unlike a varint the payload is written with one
// 8-byte store per value (the oversized store lands in reserved scratch
// and is overwritten by the next field), keeping the encoder off the
// record's critical path.
func appendObserveRecordKind(buf []byte, obs FleetObservation, kind byte) []byte {
	// Worst case per value: 1 length byte + 8 payload; +8 slack so the
	// last value's full-width store stays in bounds.
	worst := 2 + 3*binary.MaxVarintLen64 + len(obs.Model) + len(obs.Serial) +
		9*len(obs.Values) + 8
	n := len(buf)
	if cap(buf)-n < worst {
		buf = append(buf[:n], make([]byte, worst)...)
	}
	b := buf[n : n+worst]
	b[0] = kind
	i := 1
	i += binary.PutUvarint(b[i:], uint64(len(obs.Model)))
	i += copy(b[i:], obs.Model)
	i += binary.PutUvarint(b[i:], uint64(len(obs.Serial)))
	i += copy(b[i:], obs.Serial)
	i += binary.PutVarint(b[i:], int64(obs.Day))
	if obs.Failed {
		b[i] = 1
	} else {
		b[i] = 0
	}
	i++
	i += binary.PutUvarint(b[i:], uint64(len(obs.Values)))
	for _, v := range obs.Values {
		u := bits.ReverseBytes64(math.Float64bits(v))
		w := (bits.Len64(u) + 7) / 8
		b[i] = byte(w)
		binary.LittleEndian.PutUint64(b[i+1:], u)
		i += 1 + w
	}
	return buf[:n+i]
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func decodeRecord(b []byte) (walRecord, error) {
	var rec walRecord
	if len(b) < 1 {
		return rec, fmt.Errorf("orfdisk: empty WAL record")
	}
	rec.kind = b[0]
	switch rec.kind {
	case recObserveV2, recObserveBF:
		out, err := decodeObserveV2(b[1:])
		out.kind = rec.kind
		return out, err
	case recCursor:
		cur, err := decodeCursorRecord(b[1:])
		rec.cur = cur
		return rec, err
	case recObserve, recRetire:
	default:
		return rec, fmt.Errorf("orfdisk: unknown WAL record kind %d", rec.kind)
	}
	b = b[1:]
	var err error
	if rec.obs.Model, b, err = takeString(b); err != nil {
		return rec, err
	}
	if rec.obs.Serial, b, err = takeString(b); err != nil {
		return rec, err
	}
	if rec.kind == recRetire {
		return rec, nil
	}
	if len(b) < 8+1+4 {
		return rec, fmt.Errorf("orfdisk: truncated WAL record")
	}
	rec.obs.Day = int(int64(binary.LittleEndian.Uint64(b)))
	rec.obs.Failed = b[8] == 1
	nv := binary.LittleEndian.Uint32(b[9:])
	b = b[13:]
	if uint64(len(b)) != uint64(nv)*8 {
		return rec, fmt.Errorf("orfdisk: WAL record carries %d bytes for %d values", len(b), nv)
	}
	rec.obs.Values = make([]float64, nv)
	for i := range rec.obs.Values {
		rec.obs.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return rec, nil
}

// decodeObserveV2 parses the varint-packed observe body written by
// appendObserveRecordKind (b excludes the kind byte).
func decodeObserveV2(b []byte) (walRecord, error) {
	rec := walRecord{kind: recObserveV2}
	bad := func() (walRecord, error) {
		return rec, fmt.Errorf("orfdisk: truncated v2 WAL record")
	}
	var err error
	if rec.obs.Model, b, err = takeVarString(b); err != nil {
		return rec, err
	}
	if rec.obs.Serial, b, err = takeVarString(b); err != nil {
		return rec, err
	}
	day, n := binary.Varint(b)
	if n <= 0 {
		return bad()
	}
	rec.obs.Day = int(day)
	b = b[n:]
	if len(b) < 1 {
		return bad()
	}
	rec.obs.Failed = b[0] == 1
	b = b[1:]
	nv, n := binary.Uvarint(b)
	if n <= 0 {
		return bad()
	}
	b = b[n:]
	// Every packed value is at least one byte, so nv is bounded by the
	// remaining body; checking before the make keeps a corrupt count
	// from forcing a huge allocation.
	if nv > uint64(len(b)) {
		return bad()
	}
	rec.obs.Values = make([]float64, nv)
	for i := range rec.obs.Values {
		if len(b) < 1 {
			return bad()
		}
		w := int(b[0])
		if w > 8 || len(b) < 1+w {
			return bad()
		}
		var u uint64
		if len(b) >= 9 {
			u = binary.LittleEndian.Uint64(b[1:]) & valueMask[w]
		} else {
			for k := 0; k < w; k++ {
				u |= uint64(b[1+k]) << (8 * k)
			}
		}
		rec.obs.Values[i] = math.Float64frombits(bits.ReverseBytes64(u))
		b = b[1+w:]
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("orfdisk: %d trailing bytes in v2 WAL record", len(b))
	}
	return rec, nil
}

// valueMask[w] keeps the low w bytes of a full-width little-endian
// load, so the decoder can mirror the encoder's single-store trick
// whenever at least 8 payload bytes remain.
var valueMask = [9]uint64{
	0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF,
	0xFF_FFFFFFFF, 0xFFFF_FFFFFFFF, 0xFFFFFF_FFFFFFFF, ^uint64(0),
}

func takeVarString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("orfdisk: truncated v2 WAL record")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("orfdisk: truncated WAL record")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(len(b)) < 4+uint64(n) {
		return "", nil, fmt.Errorf("orfdisk: truncated WAL record")
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}
