package orfdisk

import (
	"errors"
	"fmt"
	"time"

	"orfdisk/internal/replica"
	"orfdisk/internal/wal"
)

// Follower mode: an engine created with EngineConfig.Follower is a read
// replica. It refuses writes (Ingest/IngestBatch/Retire fail with
// ErrNotLeader), and instead implements replica.Applier: records shipped
// from the leader are appended to the follower's own WAL *at the
// leader's sequence numbers* (wal.AppendAt), then applied to the shard
// workers exactly like recovery replay. Because the follower mirrors
// leader numbering, its snapshots, crash recovery and replication-resume
// position all speak leader offsets — and after Promote, appends simply
// continue the leader's sequence, so a promoted follower's saved state
// is byte-identical to the state an uninterrupted leader would have
// saved.
//
// The read path is fully live on a follower: shards publish frozen
// snapshots as replicated records are applied, so /v1/predict serves
// warm reads whose staleness is the replication lag plus the freeze
// cadence.

// ErrNotLeader reports a write routed to a follower replica. HTTP maps
// it to 409 Conflict; clients should retry against the leader.
var ErrNotLeader = errors.New("orfdisk: not the leader (follower replicas are read-only)")

// ErrSyncUnacked reports a synchronous-commit write that is durable on
// the leader but was not acknowledged by the configured number of
// followers in time. The record is NOT lost — it is fsynced locally
// and will ship when a follower reattaches — but it does not yet have
// the cross-node durability SyncAcks promises. HTTP maps it to 503
// with Retry-After; clients must treat the write as indeterminate.
var ErrSyncUnacked = errors.New("orfdisk: write durable locally but not acknowledged by enough followers")

// AckWaiter blocks until k followers have durably acknowledged a WAL
// sequence number — implemented by *replica.Source. The engine calls
// it after its own fsync when EngineConfig.SyncAcks > 0.
type AckWaiter interface {
	WaitAcked(seq uint64, k int, timeout time.Duration) error
}

// SetAckWaiter attaches the replication source whose follower acks
// gate synchronous commits. Until one is attached, an engine with
// SyncAcks > 0 fails writes (fail-closed: the guarantee cannot be
// provided, so the write is not acknowledged).
func (e *Engine) SetAckWaiter(w AckWaiter) { e.ackWaiter.Store(&w) }

// SetReplicationSourceAddr records the address of the replication
// listener this engine is serving, for /v1/replication — the routing
// tier uses it to re-point surviving followers after a promotion.
func (e *Engine) SetReplicationSourceAddr(addr string) { e.replAddr.Store(addr) }

// SeedStatser reports follower seed-transfer totals — implemented by
// *replica.Source. wireBytes are post-compression bytes on the wire,
// rawBytes the uncompressed bytes they represent.
type SeedStatser interface {
	SeedStats() (seeds, wireBytes, rawBytes uint64)
}

// SetSeedStats attaches the replication source whose seed-transfer
// counters /v1/replication reports on leaders.
func (e *Engine) SetSeedStats(s SeedStatser) { e.seedStats.Store(&s) }

// waitSyncAcks gates a leader write behind follower acks when
// synchronous commit is on. The record is already applied and in the
// WAL; Sync makes it durable (and shippable — the source only streams
// fsynced records), then the waiter parks until SyncAcks followers
// have fsynced it too. Concurrent writers share fsyncs (group commit):
// a Sync that finds nothing dirty is a mutex acquire.
func (e *Engine) waitSyncAcks(seq uint64) error {
	if e.syncAcks <= 0 || e.follower.Load() {
		return nil
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	wp := e.ackWaiter.Load()
	if wp == nil {
		return fmt.Errorf("%w: no replication source attached", ErrSyncUnacked)
	}
	if err := (*wp).WaitAcked(seq, e.syncAcks, e.syncAckTimeout); err != nil {
		return fmt.Errorf("%w: %v", ErrSyncUnacked, err)
	}
	return nil
}

// IsFollower reports whether the engine currently refuses writes.
func (e *Engine) IsFollower() bool { return e.follower.Load() }

// WAL exposes the engine's write-ahead log for replication (a
// replica.Source ships it to followers). Nil without a DataDir.
func (e *Engine) WAL() *wal.WAL { return e.wal }

// ReplicationResume returns the last leader sequence number this engine
// has durably applied (0 before any). Part of replica.Applier: it is
// the handshake resume position and the value of every ack.
func (e *Engine) ReplicationResume() uint64 { return e.replApplied.Load() }

// ObserveLeaderHead records the leader's newest committed sequence
// number and the leader-side send time of the frame that carried it.
// Part of replica.Applier; feeds the replica_lag_* gauges and Ready.
// The local receipt time is recorded too: Ready uses it to detect a
// silently dead stream, which freezes the observed head and would
// otherwise read as zero lag forever.
func (e *Engine) ObserveLeaderHead(head uint64, sentAt time.Time) {
	e.leaderHead.Store(head)
	e.leaderSent.Store(sentAt.UnixNano())
	e.lastFrame.Store(time.Now().UnixNano())
}

// ApplyReplicated durably applies a batch of leader records: each is
// appended to the follower's WAL at the leader's sequence number and
// applied to its model's shard through the same applyRecords as every
// other source, one shard dispatch per run of same-model records (see
// applyRun); the batch is fsynced before return, so the ack that
// follows only ever covers crash-safe state. The applied position
// advances only after a whole run is applied. Part of replica.Applier.
func (e *Engine) ApplyReplicated(recs []replica.Record) error {
	if !e.follower.Load() {
		// A promoted (or misconfigured) engine must not mix a replication
		// stream into its own appends.
		return ErrNotLeader
	}
	applied := e.replApplied.Load()
	var run durableRun
	flush := func() error {
		if len(run.items) == 0 {
			return nil
		}
		last := run.items[len(run.items)-1].seq
		if err := e.applyRun(&run, false); err != nil {
			return err
		}
		applied = last
		e.replApplied.Store(applied)
		return nil
	}
	for _, r := range recs {
		if r.Seq <= applied {
			continue // duplicate delivery after a reconnect
		}
		rec, err := decodeRecord(r.Payload)
		if err != nil {
			return fmt.Errorf("orfdisk: replicated record at seq %d: %w", r.Seq, err)
		}
		if rec.kind != recCursor {
			if run.cuts(rec.obs.Model) {
				if err := flush(); err != nil {
					return err
				}
			}
			run.add(r.Seq, rec, r.Payload)
			continue
		}
		// Cursor records carry no model state: the follower only tracks
		// the resume point, so a promoted follower can continue an
		// interrupted backfill exactly like a restarted leader. The
		// pending run goes first so the position never passes an
		// unapplied record. A record below the WAL tail is already
		// durable from an earlier delivery (see applyRun).
		if err := flush(); err != nil {
			return err
		}
		if r.Seq >= e.wal.NextSeq() {
			if err := e.wal.AppendAt(r.Seq, r.Payload); err != nil {
				return err
			}
		}
		e.noteResumeRecord(r.Seq, rec)
		applied = r.Seq
		e.replApplied.Store(applied)
	}
	if err := flush(); err != nil {
		return err
	}
	return e.wal.Sync()
}

// lagRecords returns how many leader records the follower has yet to
// apply (0 for leaders and caught-up followers).
func (e *Engine) lagRecords() uint64 {
	if !e.follower.Load() {
		return 0
	}
	head, applied := e.leaderHead.Load(), e.replApplied.Load()
	if head <= applied {
		return 0
	}
	return head - applied
}

// lagSeconds estimates replication staleness: 0 when caught up, else
// the age of the newest leader frame the follower has not fully applied.
func (e *Engine) lagSeconds() float64 {
	if e.lagRecords() == 0 {
		return 0
	}
	sent := e.leaderSent.Load()
	if sent == 0 {
		return 0
	}
	return time.Since(time.Unix(0, sent)).Seconds()
}

// ReplicationStatus is the GET /v1/replication report.
type ReplicationStatus struct {
	Role        string  `json:"role"` // "leader" | "follower"
	Applied     uint64  `json:"applied_seq"`
	LeaderHead  uint64  `json:"leader_head,omitempty"`
	LagRecords  uint64  `json:"lag_records"`
	LagSeconds  float64 `json:"lag_seconds"`
	ReadyMaxLag uint64  `json:"ready_max_lag,omitempty"`
	// SilenceSeconds is how long ago the follower last heard any frame
	// from its leader (0 until the first frame, and on leaders).
	SilenceSeconds float64 `json:"silence_seconds,omitempty"`
	// SyncAcks is the leader's synchronous-commit requirement: writes
	// are acknowledged only after this many followers fsync them
	// (0 = asynchronous replication).
	SyncAcks int `json:"sync_acks,omitempty"`
	// ReplicateAddr is the address of the replication listener this
	// leader serves, when one is attached — the routing tier re-points
	// surviving followers at it after a promotion.
	ReplicateAddr string `json:"replicate_addr,omitempty"`
	// Seed-transfer totals from the attached replication source: how
	// many diverged followers this leader has re-seeded, and the wire
	// (post-compression) vs raw bytes those transfers moved.
	SeedsServed   uint64 `json:"seeds_served,omitempty"`
	SeedWireBytes uint64 `json:"seed_wire_bytes,omitempty"`
	SeedRawBytes  uint64 `json:"seed_raw_bytes,omitempty"`
}

// Replication reports the engine's replication role and lag. The
// follower branch deliberately avoids e.wal: a follower's WAL handle
// is swapped during a seed install, and the applied position lives in
// an atomic either way.
func (e *Engine) Replication() ReplicationStatus {
	if e.follower.Load() {
		st := ReplicationStatus{
			Role:        "follower",
			Applied:     e.replApplied.Load(),
			LeaderHead:  e.leaderHead.Load(),
			LagRecords:  e.lagRecords(),
			LagSeconds:  e.lagSeconds(),
			ReadyMaxLag: e.readyMaxLag,
		}
		if last := e.lastFrame.Load(); last != 0 {
			st.SilenceSeconds = time.Since(time.Unix(0, last)).Seconds()
		}
		return st
	}
	st := ReplicationStatus{Role: "leader", Applied: e.wallessApplied(), SyncAcks: e.syncAcks}
	if addr, ok := e.replAddr.Load().(string); ok {
		st.ReplicateAddr = addr
	}
	if p := e.seedStats.Load(); p != nil {
		st.SeedsServed, st.SeedWireBytes, st.SeedRawBytes = (*p).SeedStats()
	}
	return st
}

// wallessApplied is the leader-side applied position (newest committed
// sequence number), tolerating the in-memory (no WAL) configuration.
func (e *Engine) wallessApplied() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.NextSeq() - 1
}

// Ready reports whether the engine should receive traffic: a leader is
// ready once NewEngine has returned (recovery complete); a follower is
// ready once it has heard from its leader, its lag is at most
// EngineConfig.ReadyMaxLag records, and a leader frame has arrived
// within EngineConfig.ReadyMaxSilence. The reason is empty when ready.
func (e *Engine) Ready() (bool, string) {
	if !e.follower.Load() {
		return true, ""
	}
	if e.leaderSent.Load() == 0 {
		return false, "follower has not heard from its leader yet"
	}
	if lag := e.lagRecords(); lag > e.readyMaxLag {
		return false, fmt.Sprintf("replication lag %d records exceeds limit %d", lag, e.readyMaxLag)
	}
	// A dead stream freezes leaderHead, so the lag check above reads 0
	// exactly when the replica is at its stalest. Silence — no frame, not
	// even a heartbeat — is the signal that catches it.
	if last := e.lastFrame.Load(); last != 0 {
		if silence := time.Since(time.Unix(0, last)); silence > e.readyMaxSilence {
			return false, fmt.Sprintf("no leader frame for %s (limit %s): leader dead or partitioned",
				silence.Round(time.Millisecond), e.readyMaxSilence)
		}
	}
	return true, ""
}

// Promote turns a follower into a leader. Idempotent; safe to call on a
// leader (no-op). The engine starts accepting writes immediately,
// continuing the leader's sequence numbering, and any OnPromote hooks
// run (synchronously) exactly once — the serving layer uses one to stop
// the follower client.
//
// Promote does not contact the old leader: the caller (a routing tier,
// an operator) decides when the leader is dead. Promoting while the old
// leader still accepts writes forks the logs — exactly the split-brain
// every external failover system risks; fence the old leader first.
func (e *Engine) Promote() {
	if !e.follower.CompareAndSwap(true, false) {
		return
	}
	e.log.Info("promoted to leader", "applied_seq", e.replApplied.Load())
	e.promoteMu.Lock()
	hooks := e.onPromote
	e.onPromote = nil
	e.promoteMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Demote turns a leader back into a write-refusing follower: Ingest,
// IngestBatch and Retire fail with ErrNotLeader immediately. It is the
// fencing half of failover — a routing tier (or operator) demotes a
// suspect old leader before or after promoting a replacement, so a
// resurrected process cannot keep accepting direct writes and fork the
// log. A demoted engine has no replication client pulling from the new
// leader; it also reports not-ready, keeping it out of read rotations
// until it is restarted with -follow to rejoin the group as a real
// replica. Idempotent; a no-op on an engine that is already a follower.
func (e *Engine) Demote() {
	if !e.follower.CompareAndSwap(false, true) {
		return
	}
	// Seed the follower-side position from the leader-side one so
	// Replication() and any later resume speak the WAL tail, not zero.
	e.replApplied.Store(e.wallessApplied())
	e.log.Warn("demoted: refusing writes until restarted as a follower",
		"applied_seq", e.replApplied.Load())
}

// OnPromote registers fn to run when Promote fires (synchronously, in
// registration order). Registering after promotion runs fn immediately.
func (e *Engine) OnPromote(fn func()) {
	e.promoteMu.Lock()
	if e.follower.Load() {
		e.onPromote = append(e.onPromote, fn)
		e.promoteMu.Unlock()
		return
	}
	e.promoteMu.Unlock()
	fn()
}

// registerReplicaGauges surfaces follower lag for scraping. Registered
// for every engine: leaders (and promoted followers) read 0.
func (e *Engine) registerReplicaGauges() {
	e.reg.GaugeFunc("replica_lag_records",
		"Leader records not yet applied by this follower (0 on leaders).",
		func() float64 { return float64(e.lagRecords()) })
	e.reg.GaugeFunc("replica_lag_seconds",
		"Age of the newest unapplied leader frame (0 when caught up or leading).",
		func() float64 { return e.lagSeconds() })
}
