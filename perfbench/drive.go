package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"orfdisk"
)

// opCount is the failure accounting of one operation type. A request
// is attempted once and never retried; it either succeeds or fails for
// exactly one reason.
type opCount struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Shed      int `json:"shed_503"`
	Conflict  int `json:"conflict_409"`
	OtherHTTP int `json:"other_status"`
	Transport int `json:"transport_error"`
	ItemError int `json:"item_error"` // 200 replies carrying per-item errors
}

func (c opCount) failed() int { return c.Attempted - c.OK }

func (c *opCount) add(o opCount) {
	c.Attempted += o.Attempted
	c.OK += o.OK
	c.Shed += o.Shed
	c.Conflict += o.Conflict
	c.OtherHTTP += o.OtherHTTP
	c.Transport += o.Transport
	c.ItemError += o.ItemError
}

// post sends one request and classifies the outcome. It returns the
// reply body only for a 200.
func post(ctx context.Context, c *http.Client, url string, body []byte, cnt *opCount) ([]byte, bool) {
	cnt.Attempted++
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cnt.Transport++
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		cnt.Transport++
		return nil, false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		cnt.Transport++
		return nil, false
	case resp.StatusCode == http.StatusServiceUnavailable:
		cnt.Shed++
		return nil, false
	case resp.StatusCode == http.StatusConflict:
		cnt.Conflict++
		return nil, false
	case resp.StatusCode != http.StatusOK:
		cnt.OtherHTTP++
		return nil, false
	}
	return b, true
}

// Phase markers shared by the observe and predict loops.
const (
	phasePaced int32 = iota
	phaseFlood
	phaseDone
)

// observeResult is what the observe loop measured.
type observeResult struct {
	count      opCount
	pacedLatMs []float64 // per batch, from due time; +Inf when failed
	lateMs     []float64 // per paced batch, send time − due time
	floodLatMs []float64 // per batch, send → reply
	clientS    float64   // summed send → reply time of every batch
	floodRows  int
	floodS     float64
	sliceRate  []float64 // rows/s of each of floodSlices equal slices of the flood
	floodCPUS  float64   // CPU seconds the router, leader and follower used during the flood
	mismatches int
	digestGot  uint64
	digestWant uint64
	firstBad   string
}

// driveObserve replays the pre-encoded batches in order over one
// connection: the paced batches on a fixed rows/s schedule (each sent
// at max(due, previous reply), timed from its due time), then the rest
// closed-loop. Every reply item is compared with the oracle.
func driveObserve(ctx context.Context, c *http.Client, url string, in *inputs, rate float64, phase *atomic.Int32, cpu func() float64) observeResult {
	var r observeResult
	got, want := fnv.New64a(), fnv.New64a()
	check := func(b obsBatch, body []byte) bool {
		var items []orfdisk.BatchItemResponse
		if err := json.Unmarshal(body, &items); err != nil {
			r.count.OtherHTTP++
			return false
		}
		lo := b.lo
		if len(items) != b.hi-b.lo {
			r.count.OtherHTTP++
			return false
		}
		itemErr := false
		for i, it := range items {
			w := in.want[lo+i]
			if it.Error != "" {
				itemErr = true
			}
			wantScore := w.Score
			if w.Final {
				wantScore = 0 // the server sends 0 for failure events (NaN is not JSON)
			}
			hashReply(got, it.Serial, it.Day, it.Score, it.Risky, it.Final)
			hashReply(want, w.Serial, w.Day, wantScore, w.Risky, w.Final)
			if it.Serial != w.Serial || it.Day != w.Day || math.Float64bits(it.Score) != math.Float64bits(wantScore) ||
				it.Risky != w.Risky || it.Final != w.Final || it.Error != "" {
				if r.mismatches == 0 {
					r.firstBad = fmt.Sprintf("row %d: got %+v, oracle %+v", lo+i, it, w)
				}
				r.mismatches++
			}
		}
		if itemErr {
			r.count.ItemError++
			return false
		}
		return true
	}

	send := func(i int) (time.Time, bool) {
		body, ok := post(ctx, c, url, in.batches[i].body, &r.count)
		end := time.Now()
		if ok && check(in.batches[i], body) {
			r.count.OK++
			return end, true
		}
		return end, false
	}

	interval := time.Duration(float64(pacedBatch) / rate * float64(time.Second))
	start := time.Now()
	for i := 0; i < in.paced; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		end, ok := send(i)
		r.clientS += end.Sub(sent).Seconds()
		r.lateMs = append(r.lateMs, ms(sent.Sub(due)))
		if ok {
			r.pacedLatMs = append(r.pacedLatMs, ms(end.Sub(due)))
		} else {
			r.pacedLatMs = append(r.pacedLatMs, math.Inf(1))
		}
	}

	phase.Store(phaseFlood)
	cpu0 := cpu()
	floodStart := time.Now()
	nFlood := len(in.batches) - in.paced
	sliceStart, sliceRows := floodStart, 0
	for i := in.paced; i < len(in.batches); i++ {
		if k := i - in.paced; k > 0 && k*floodSlices/nFlood != (k-1)*floodSlices/nFlood {
			r.sliceRate = append(r.sliceRate, float64(sliceRows)/since(sliceStart))
			sliceStart, sliceRows = time.Now(), 0
		}
		sliceRows += in.batches[i].hi - in.batches[i].lo
		sent := time.Now()
		end, ok := send(i)
		r.clientS += end.Sub(sent).Seconds()
		if ok {
			r.floodLatMs = append(r.floodLatMs, ms(end.Sub(sent)))
		} else {
			r.floodLatMs = append(r.floodLatMs, math.Inf(1))
		}
	}
	r.sliceRate = append(r.sliceRate, float64(sliceRows)/since(sliceStart))
	r.floodS = time.Since(floodStart).Seconds()
	r.floodCPUS = cpu() - cpu0
	if in.paced < len(in.batches) {
		r.floodRows = len(in.live) - in.batches[in.paced].lo
	}
	phase.Store(phaseDone)
	r.digestGot, r.digestWant = got.Sum64(), want.Sum64()
	return r
}

func hashReply(h io.Writer, serial string, day int, score float64, risky, final bool) {
	var b [8 + 8 + 2]byte
	putU64(b[0:], uint64(day))
	putU64(b[8:], math.Float64bits(score))
	if risky {
		b[16] = 1
	}
	if final {
		b[17] = 1
	}
	io.WriteString(h, serial)
	h.Write(b[:])
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// predictResult is what the predict loop measured.
type predictResult struct {
	count  opCount
	latMs  []float64 // from due time; +Inf when failed
	behind []float64 // updates_behind of every successful reply
}

// drivePredict sends /v1/predict/batch over one connection on a fixed
// schedule of rate requests per second while the observe loop is in
// its paced phase; the flood runs alone, so its throughput and CPU are
// the observe path's.
// A request is sent at max(due, previous reply) and timed from its due
// time, so a stall delays, and shows in, every request behind it.
func drivePredict(ctx context.Context, c *http.Client, url string, bodies [][]byte, rate float64, phase *atomic.Int32) predictResult {
	var r predictResult
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if phase.Load() != phasePaced {
			return r
		}
		lat := math.Inf(1)
		if body, ok := post(ctx, c, url, bodies[j%len(bodies)], &r.count); ok {
			var resp orfdisk.PredictBatchResponse
			switch err := json.Unmarshal(body, &resp); {
			case err != nil || len(resp.Results) != predictItems:
				r.count.OtherHTTP++
			case hasItemError(resp.Results):
				r.count.ItemError++
			default:
				r.count.OK++
				r.behind = append(r.behind, float64(resp.UpdatesBehind))
				lat = ms(time.Since(due))
			}
		}
		r.latMs = append(r.latMs, lat)
	}
}

func hasItemError(items []orfdisk.PredictBatchItem) bool {
	for _, it := range items {
		if it.Error != "" {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkProbes sends every probe to base and compares the scores, bit
// for bit, with the oracle's model at the point the node's published
// snapshot stands (its updates_behind).
func checkProbes(ctx context.Context, c *http.Client, base string, probes []probe) error {
	for _, pr := range probes {
		var cnt opCount
		body, ok := post(ctx, c, base+"/v1/predict/batch", pr.body, &cnt)
		if !ok {
			return fmt.Errorf("probe %s on %s: request failed %+v", pr.model, base, cnt)
		}
		var resp orfdisk.PredictBatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("probe %s on %s: %w", pr.model, base, err)
		}
		b := resp.UpdatesBehind
		if b < 0 || b >= int64(len(pr.want)) || pr.want[b] == nil {
			return fmt.Errorf("probe %s on %s: snapshot %d updates behind, outside the checked window", pr.model, base, b)
		}
		want := pr.want[b]
		if len(resp.Results) != len(want.scores) {
			return fmt.Errorf("probe %s on %s: %d results for %d vectors", pr.model, base, len(resp.Results), len(want.scores))
		}
		for i, it := range resp.Results {
			if it.Error != "" || math.Float64bits(it.Score) != math.Float64bits(want.scores[i]) || it.Risky != want.risky[i] {
				return fmt.Errorf("probe %s on %s (%d behind): vector %d scored %v (risky %v, err %q), oracle %v (risky %v)",
					pr.model, base, b, i, it.Score, it.Risky, it.Error, want.scores[i], want.risky[i])
			}
		}
	}
	return nil
}

// checkStats compares a node's /v1/stats with the oracle's models.
func checkStats(c *http.Client, base string, o *oracle) error {
	var got []orfdisk.ModelStats
	if err := getJSON(c, base+"/v1/stats", &got); err != nil {
		return err
	}
	if len(got) != len(o.models) {
		return fmt.Errorf("%s/v1/stats lists %d models, oracle has %d", base, len(got), len(o.models))
	}
	for _, g := range got {
		p, ok := o.models[g.Model]
		if !ok {
			return fmt.Errorf("%s/v1/stats has model %q the oracle never saw", base, g.Model)
		}
		st := p.Stats()
		want := orfdisk.ModelStats{
			Model: g.Model, Updates: st.Updates, PosSeen: st.PosSeen, NegSeen: st.NegSeen,
			Replaced: st.Replaced, Nodes: st.Nodes, Tracked: p.TrackedDisks(),
		}
		if g != want {
			return fmt.Errorf("%s/v1/stats %+v, oracle %+v", base, g, want)
		}
	}
	return nil
}

var errMismatch = errors.New("output differs from the oracle")
