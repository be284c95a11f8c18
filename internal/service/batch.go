package service

// POST /v1/batch — the high-throughput request path. One request carries N
// evaluate/compare items; results stream back as NDJSON, one seq-tagged
// line per item in item order plus a terminal summary line, so a client
// pipelines N evaluations over a single connection instead of paying N
// round trips. Server side, items that share a workload trace but differ
// in policy are coalesced onto one replay plan (Engine.AcquireTracePlan):
// the trace is generated once and every policy's cachesim→memsim→avf chain
// replays it. The batch is priced into the admission controller as the sum
// of its non-coalesced items — each distinct fresh result key costs one
// options-scaled unit; duplicates within the batch and already-cached keys
// are free. Item failures are isolated: an item's error rides its own
// result line while the rest of the batch completes.
//
// The stream replays identically on reconnect (results are cached and
// emission order is item order), so the client's seq-dedup reconnect
// machinery — the same scheme the job watch stream uses — resumes a
// severed batch with no lost or duplicated items.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"hmem"
	"hmem/internal/exec"
)

// maxBatchItems bounds one batch request. The body limit bounds it too;
// this makes the contract explicit and keeps the per-item bookkeeping
// slices small.
const maxBatchItems = 4096

// BatchItem is one evaluation inside a batch request: an evaluate item
// (Policy set) or a compare item (Policies set) — exactly one of the two.
// ID is an opaque client token echoed back on the item's result line so
// pipelined callers can match responses without positional bookkeeping.
type BatchItem struct {
	ID       string            `json:"id,omitempty"`
	Workload string            `json:"workload"`
	Policy   hmem.PolicyName   `json:"policy,omitempty"`
	Policies []hmem.PolicyName `json:"policies,omitempty"`
	Options  *OptionsPatch     `json:"options,omitempty"`
}

// policySet returns the item's policies, evaluate and compare alike.
func (it *BatchItem) policySet() []hmem.PolicyName {
	if len(it.Policies) > 0 {
		return it.Policies
	}
	return []hmem.PolicyName{it.Policy}
}

// validate checks the item's structural invariants and target names.
func (it *BatchItem) validate() error {
	if it.Policy != "" && len(it.Policies) > 0 {
		return errors.New("set policy or policies, not both")
	}
	if it.Policy == "" && len(it.Policies) == 0 {
		return errors.New("one of policy or policies is required")
	}
	return validateTarget(it.Workload, it.policySet()...)
}

// BatchRequest asks for N evaluations in one round trip.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchResult is one NDJSON line of the batch response stream: a per-item
// result (Result for evaluate items, Results for compare items, Error when
// the item failed), or the terminal summary line (Done non-nil). Seq is
// index+1 for item lines and items+1 for the terminal line — the dedup
// token the client's reconnect machinery keys on. Result payloads are
// raw JSON: the bytes are exactly what /v1/evaluate would have returned
// for the same item, which the differential test pins.
type BatchResult struct {
	Seq     int             `json:"seq"`
	Index   int             `json:"index"`
	ID      string          `json:"id,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Results json.RawMessage `json:"results,omitempty"`
	Error   string          `json:"error,omitempty"`
	Done    *BatchSummary   `json:"done,omitempty"`
}

// Evaluation decodes an evaluate item's result payload.
func (r *BatchResult) Evaluation() (hmem.Result, error) {
	var out hmem.Result
	if err := json.Unmarshal(r.Result, &out); err != nil {
		return hmem.Result{}, fmt.Errorf("hmemd: decoding batch result: %w", err)
	}
	return out, nil
}

// Comparisons decodes a compare item's result payload.
func (r *BatchResult) Comparisons() ([]hmem.Result, error) {
	var out []hmem.Result
	if err := json.Unmarshal(r.Results, &out); err != nil {
		return nil, fmt.Errorf("hmemd: decoding batch results: %w", err)
	}
	return out, nil
}

// BatchSummary is the stream's terminal line.
type BatchSummary struct {
	Items  int `json:"items"`
	Errors int `json:"errors"`
}

// decodeBatchRequest parses and validates a batch request body. Standalone
// (rather than inline in the handler) so FuzzBatchRequest can drive the
// exact production decode path on raw bytes.
func decodeBatchRequest(body []byte) (*BatchRequest, error) {
	var req BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if len(req.Items) == 0 {
		return nil, errors.New("items must be non-empty")
	}
	if len(req.Items) > maxBatchItems {
		return nil, fmt.Errorf("batch has %d items; the limit is %d", len(req.Items), maxBatchItems)
	}
	for i := range req.Items {
		if err := req.Items[i].validate(); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return &req, nil
}

// encodeBatchLine renders one NDJSON frame of the batch stream.
func encodeBatchLine(res BatchResult) ([]byte, error) {
	buf, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// decodeBatchLine parses one NDJSON frame; the trailing newline is
// optional. Unknown fields are rejected so the framing round trip
// (FuzzBatchFrame) catches client/server drift.
func decodeBatchLine(line []byte) (BatchResult, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var res BatchResult
	if err := dec.Decode(&res); err != nil {
		return BatchResult{}, err
	}
	return res, nil
}

// batchFailure renders an item that never produced a result (skipped by
// cancellation, or its task died before recording an outcome).
func batchFailure(it BatchItem, index int, err error) BatchResult {
	return BatchResult{Seq: index + 1, Index: index, ID: it.ID, Error: err.Error()}
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfClosing(w) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeBatchRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items := req.Items

	// Resolve every item's engine up front, so a bad option patch 400s the
	// whole batch before any admission charge or stream byte, and price
	// the batch as the sum of its non-coalesced items: each distinct fresh
	// result key costs one options-scaled unit; duplicates within the batch
	// and keys already stored (or in flight) are free.
	type itemExec struct {
		engine *hmem.Engine
		digest string
	}
	execs := make([]itemExec, len(items))
	var cost float64
	seen := make(map[string]bool)
	for i, it := range items {
		e, digest, err := s.engineFor(it.Options)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("item %d: %w", i, err))
			return
		}
		execs[i] = itemExec{engine: e, digest: digest}
		cost += s.freshCost(seen, digest, it.Workload, it.policySet(), e.Options())
	}
	if !s.admitCost(w, cost) {
		return
	}
	start := time.Now()
	defer func() { s.adm.release(cost, time.Since(start)) }()
	s.met.batchRequests.Inc()

	// Hold one replay plan per (engine, workload) group, so items sharing a
	// trace but differing in policy drive all their simulation chains off a
	// single trace pass. A hold on an all-cached group generates nothing.
	// Acquisition failure is not fatal — those items run uncoalesced and
	// surface their own errors.
	ctx := r.Context()
	type planKey struct{ digest, workload string }
	plans := make(map[planKey]func())
	for i := range items {
		pk := planKey{execs[i].digest, items[i].Workload}
		if _, ok := plans[pk]; ok {
			continue
		}
		if release, err := execs[i].engine.AcquireTracePlan(ctx, items[i].Workload); err == nil {
			plans[pk] = release
		}
	}
	defer func() {
		for _, release := range plans {
			release()
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Items execute in parallel with per-item error isolation; the emitter
	// below streams each line as soon as its item — and every earlier one —
	// has settled, so the stream is in item order but the work is not
	// serialized.
	outcomes := make([]BatchResult, len(items))
	done := make([]chan struct{}, len(items))
	for i := range done {
		done[i] = make(chan struct{})
	}
	go func() {
		errs := exec.Settle(ctx, s.resolvedDefaults.Parallel, len(items), func(i int) error {
			outcomes[i] = s.runBatchItem(ctx, items[i], execs[i].engine, execs[i].digest, i)
			close(done[i])
			return nil
		})
		// Tasks that never recorded an outcome — skipped by cancellation or
		// killed by a panic — get their error here and unblock the emitter.
		for i, err := range errs {
			if err != nil {
				outcomes[i] = batchFailure(items[i], i, err)
				close(done[i])
			}
		}
	}()

	errCount := 0
	for i := range items {
		select {
		case <-done[i]:
		case <-ctx.Done():
			return // client gone; any status we write is unread
		}
		line, err := encodeBatchLine(outcomes[i])
		if err != nil {
			line, _ = encodeBatchLine(batchFailure(items[i], i, err))
		}
		outcome := "ok"
		if outcomes[i].Error != "" {
			errCount++
			outcome = "error"
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		// Flush only when the stream is about to idle: if the next line (or
		// the terminal summary) follows immediately, it carries these bytes
		// and the per-line syscall is saved. Fresh, slow items still flush
		// every line, so streaming latency is unchanged where it matters.
		if flusher != nil && i+1 < len(items) {
			select {
			case <-done[i+1]:
			default:
				flusher.Flush()
			}
		}
		s.met.batchItems.With(outcome).Inc()
	}
	line, err := encodeBatchLine(BatchResult{
		Seq:  len(items) + 1,
		Done: &BatchSummary{Items: len(items), Errors: errCount},
	})
	if err != nil {
		return
	}
	_, _ = w.Write(line)
	if flusher != nil {
		flusher.Flush()
	}
}

// runBatchItem executes one item through the shared result store and
// renders its line. Errors are the item's, never the batch's.
func (s *Service) runBatchItem(ctx context.Context, it BatchItem, e *hmem.Engine, digest string, index int) BatchResult {
	out := BatchResult{Seq: index + 1, Index: index, ID: it.ID}
	raws, err := s.evaluatePolicies(ctx, e, digest, it.Workload, it.policySet())
	switch {
	case err != nil:
		out.Error = err.Error()
	case len(it.Policies) > 0:
		out.Results = resultArray(raws)
	default:
		out.Result = raws[0]
	}
	return out
}
