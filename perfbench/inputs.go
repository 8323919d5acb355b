package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"orfdisk"
	"orfdisk/internal/backfill"
	"orfdisk/internal/dataset"
	"orfdisk/internal/rng"
	"orfdisk/internal/smart"
)

// Fleet shape shared by every workload: both simulated drive models,
// merged day by day as StreamMerged (and orfgen -profile ALL) emit them,
// over the workload's window.
const (
	fleetScale   = 0.01 // 408 drives; ~300 snapshots per fleet day
	daysPerQ     = 90   // orfgen -history writes one file set per 90 days
	historyStrip = 4    // orfgen -stripes
	predictItems = 64   // vectors per /v1/predict/batch request
	predictSets  = 8    // distinct predict bodies per model, cycled
)

// serveFlags are the orfserve flags the oracle depends on. The benchmark
// runs orfserve with their defaults and reads them back from the built
// binary's -h, so the oracle follows the code under test.
var serveFlags = []string{"trees", "lambdan", "threshold", "horizon", "freeze-every"}

// serveDefaults is what the oracle takes from orfserve's defaults.
type serveDefaults struct {
	cfg         orfdisk.Config
	freezeEvery int // -freeze-every: applied rows per model between scoring snapshots
}

// parseServeDefaults builds the oracle's configuration from the
// defaults flagDefaults read for serveFlags.
func parseServeDefaults(defs map[string]string) (d serveDefaults, err error) {
	ints := map[string]*int{"trees": &d.cfg.ORF.Trees, "horizon": &d.cfg.Horizon, "freeze-every": &d.freezeEvery}
	floats := map[string]*float64{"lambdan": &d.cfg.ORF.LambdaNeg, "threshold": &d.cfg.Threshold}
	for k, p := range ints {
		if *p, err = strconv.Atoi(defs[k]); err != nil {
			return d, fmt.Errorf("orfserve -%s default %q: %v", k, defs[k], err)
		}
	}
	for k, p := range floats {
		if *p, err = strconv.ParseFloat(defs[k], 64); err != nil {
			return d, fmt.Errorf("orfserve -%s default %q: %v", k, defs[k], err)
		}
	}
	if d.freezeEvery <= 0 {
		return d, fmt.Errorf("orfserve -freeze-every default %d: the probe check needs count-triggered republication", d.freezeEvery)
	}
	return d, nil
}

// oracle is the reference computation the program's outputs are checked
// against: one Predictor per drive model, routed the way orfdisk.Fleet
// and the engine's shards route, fed the same rows in the same order.
// History rows are absorbed (the backfill path does not score); live
// rows are ingested and their predictions kept.
type oracle struct {
	cfg    orfdisk.Config
	models map[string]*orfdisk.Predictor
}

func newOracle(cfg orfdisk.Config) *oracle {
	return &oracle{cfg: cfg, models: map[string]*orfdisk.Predictor{}}
}

func (o *oracle) predictor(model string) *orfdisk.Predictor {
	p, ok := o.models[model]
	if !ok {
		p = orfdisk.NewPredictor(o.cfg)
		o.models[model] = p
	}
	return p
}

// IngestBackfill implements backfill.Sink.
func (o *oracle) IngestBackfill(batch []orfdisk.FleetObservation, _ *orfdisk.BackfillCursor) error {
	for i := range batch {
		if err := o.predictor(batch[i].Model).Absorb(batch[i].Observation); err != nil {
			return err
		}
	}
	return nil
}

// BackfillState implements backfill.Sink: the oracle always starts empty.
func (o *oracle) BackfillState() (orfdisk.BackfillCursor, uint64, bool) {
	return orfdisk.BackfillCursor{}, 0, false
}

func (o *oracle) ingest(obs orfdisk.FleetObservation) (orfdisk.Prediction, error) {
	return o.predictor(obs.Model).Ingest(obs.Observation)
}

// sortedModels returns the oracle's drive models in order.
func (o *oracle) sortedModels() []string {
	out := make([]string, 0, len(o.models))
	for m := range o.models {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// probeWindow bounds how many updates behind the end of the stream a
// node's published scoring snapshot may be and still be checked: the
// engine republishes after -freeze-every applied rows, counted per batch
// slice on a leader, so a snapshot trails by less than that plus one
// batch.
func probeWindow(freezeEvery int) int { return freezeEvery + floodBatch }

// probe is a fixed set of feature vectors for one model, and the scores
// the oracle gives them at each point a node's published snapshot can
// trail the end of the stream by. A shard republishes only when it
// applies rows, so once the stream stops a node keeps serving the
// snapshot it last published; want[b] is the oracle's model b rows of
// this model before the end.
type probe struct {
	model string
	body  []byte
	X     [][]float64
	want  []*expect
}

type expect struct {
	scores []float64
	risky  []bool
}

// record stores the oracle's scores for the probe when p is b updates
// behind the end of the stream.
func (pr *probe) record(p *orfdisk.Predictor, b int) error {
	fm := p.Freeze()
	scores, err := fm.ScoreBatchInto(nil, pr.X)
	if err != nil {
		return err
	}
	e := &expect{scores: scores, risky: make([]bool, len(scores))}
	for i, s := range scores {
		e.risky[i] = fm.Risky(s)
	}
	pr.want[b] = e
	return nil
}

// inputs is everything one run feeds the system, generated from the
// seed before any process under test starts.
type inputs struct {
	historyFiles []string
	historyRows  int64
	historyBytes int64

	live        []orfdisk.FleetObservation
	want        []orfdisk.Prediction // oracle reply per live row
	batches     []obsBatch
	paced       int // batches [0, paced) form the paced phase, the rest the flood
	predictBody [][]byte
	probes      []probe
	final       *oracle // oracle state after the whole stream
}

// genInputs writes the history with orfgen, generates the live stream
// in process from the same seed, and runs the oracle over both.
func genInputs(ctx context.Context, h *harness, w workload, seed uint64) (*inputs, error) {
	dir := filepath.Join(h.work, "history")
	args := []string{"-profile", "ALL", "-scale", fmt.Sprint(fleetScale),
		"-months", fmt.Sprint(w.months), "-seed", fmt.Sprint(seed),
		"-history", dir, "-stripes", fmt.Sprint(historyStrip)}
	if w.gzip {
		args = append(args, "-gzip")
	}
	gen, err := h.procs.start(h.work, "orfgen", h.binPath("orfgen"), args...)
	if err != nil {
		return nil, err
	}

	// While orfgen writes the archive, generate the live stream: the
	// same fleet (orfgen seeds STA with seed and STB with seed+1), from
	// the first day after the history.
	in := &inputs{}
	plan := w.plan(h.seconds)
	need := plan.pacedRows + plan.floodRows
	first := w.historyQuarters * daysPerQ
	gens := make([]*dataset.Generator, 2)
	for i, p := range []dataset.Profile{dataset.STA(fleetScale), dataset.STB(fleetScale)} {
		if gens[i], err = dataset.New(p.WithMonths(w.months), seed+uint64(i)); err != nil {
			gen.kill()
			return nil, err
		}
	}
	err = dataset.StreamMerged(gens, func(s smart.Sample) error {
		if s.Day < first {
			return nil
		}
		if len(in.live) == need {
			return errStop
		}
		in.live = append(in.live, orfdisk.FleetObservation{
			Model: s.Model,
			Observation: orfdisk.Observation{
				Serial: s.Serial, Day: s.Day, Failed: s.Failure, Values: s.Values,
			},
		})
		return nil
	})
	if err != nil && err != errStop {
		gen.kill()
		return nil, err
	}
	if len(in.live) < need {
		gen.kill()
		return nil, fmt.Errorf("fleet window too short: %d live rows after day %d, need %d", len(in.live), first, need)
	}
	if err := gen.wait(2 * time.Minute); err != nil {
		return nil, err
	}

	// Keep the quarters before the live stream; drop the rest.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		q, err := quarterOf(e.Name())
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, e.Name())
		if q >= w.historyQuarters {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		in.historyBytes += fi.Size()
		in.historyFiles = append(in.historyFiles, path)
	}
	sort.Strings(in.historyFiles)

	// Oracle: history parsed from the same files the loader reads, then
	// the live stream row by row.
	o := newOracle(h.serve.cfg)
	window := probeWindow(h.serve.freezeEvery)
	st, err := backfill.Run(ctx, o, in.historyFiles, backfill.Options{ProgressEvery: -1})
	if err != nil {
		return nil, fmt.Errorf("oracle backfill: %w", err)
	}
	in.historyRows = st.Rows
	if err := in.pickProbes(seed, window); err != nil {
		return nil, err
	}
	probeOf := map[string]*probe{}
	total, seen := map[string]int{}, map[string]int{}
	for _, obs := range in.live {
		total[obs.Model]++
	}
	for i := range in.probes {
		pr := &in.probes[i]
		probeOf[pr.model] = pr
		if total[pr.model] <= window {
			if err := pr.record(o.predictor(pr.model), total[pr.model]); err != nil {
				return nil, err
			}
		}
	}
	in.want = make([]orfdisk.Prediction, len(in.live))
	for i, obs := range in.live {
		if in.want[i], err = o.ingest(obs); err != nil {
			return nil, fmt.Errorf("oracle ingest row %d: %w", i, err)
		}
		seen[obs.Model]++
		if b := total[obs.Model] - seen[obs.Model]; b <= window {
			if err := probeOf[obs.Model].record(o.models[obs.Model], b); err != nil {
				return nil, err
			}
		}
	}
	in.final = o
	return in, in.encode(plan)
}

// quarterOf parses the quarter index out of an orfgen history file name
// (fleet-q003-s01.csv[.gz]).
func quarterOf(name string) (int, error) {
	if !strings.HasPrefix(name, "fleet-q") || len(name) < len("fleet-q000") {
		return 0, fmt.Errorf("unexpected history file %q", name)
	}
	return strconv.Atoi(name[len("fleet-q"):len("fleet-q000")])
}

// pickProbes draws the predict load and the probe vectors from the live
// stream's snapshots of each model, with the harness's seed.
func (in *inputs) pickProbes(seed uint64, window int) error {
	byModel := map[string][][]float64{}
	var models []string
	for _, obs := range in.live {
		if obs.Failed {
			continue
		}
		if byModel[obs.Model] == nil {
			models = append(models, obs.Model)
		}
		byModel[obs.Model] = append(byModel[obs.Model], obs.Values)
	}
	sort.Strings(models)
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	pick := func(vs [][]float64) [][]float64 {
		out := make([][]float64, predictItems)
		for i := range out {
			out[i] = vs[r.Intn(len(vs))]
		}
		return out
	}
	for i := 0; i < predictSets; i++ {
		for _, m := range models {
			b, err := predictBody(m, pick(byModel[m]))
			if err != nil {
				return err
			}
			in.predictBody = append(in.predictBody, b)
		}
	}
	for _, m := range models {
		X := pick(byModel[m])
		b, err := predictBody(m, X)
		if err != nil {
			return err
		}
		in.probes = append(in.probes, probe{model: m, body: b, X: X, want: make([]*expect, window+1)})
	}
	return nil
}

// obsBatch is one pre-encoded /v1/observe/batch request carrying the
// live rows [lo, hi).
type obsBatch struct {
	lo, hi int
	body   []byte
}

// encode pre-encodes the observe batches, so no encoding work competes
// with the system during a phase.
func (in *inputs) encode(plan plan) error {
	for lo := 0; lo < len(in.live); {
		size := floodBatch
		if lo < plan.pacedRows {
			size = pacedBatch
		}
		hi := min(lo+size, len(in.live))
		req := orfdisk.BatchRequest{Observations: make([]orfdisk.ObservationRequest, 0, hi-lo)}
		for _, obs := range in.live[lo:hi] {
			req.Observations = append(req.Observations, orfdisk.ObservationRequest{
				Serial: obs.Serial, Model: obs.Model, Day: obs.Day, Failed: obs.Failed, Values: obs.Values,
			})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		in.batches = append(in.batches, obsBatch{lo: lo, hi: hi, body: b})
		if hi <= plan.pacedRows {
			in.paced = len(in.batches)
		}
		lo = hi
	}
	return nil
}

func predictBody(model string, X [][]float64) ([]byte, error) {
	req := orfdisk.PredictBatchRequest{Model: model, Items: make([]orfdisk.PredictItem, len(X))}
	for i, x := range X {
		req.Items[i].Values = x
	}
	return json.Marshal(req)
}
