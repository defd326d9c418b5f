// The engine's one driver. Every entry point — ScanSource, ScanSources,
// ScanFiles, ScanDir — hands run a slice of items; run returns one Result
// per item. Detection is split into a per-script front half (parse + path
// extraction) and a matrix-shaped back half (embedding + classification),
// so a pass works in two phases. Phase 1 fans the per-item ladder out over
// the worker pool with par.ForCtx: load, guards, cache, dedup, deny list,
// triage, deobfuscation, rules, and the classifier's prepare. Anything that
// finishes there (cache hit, triage clear, rules verdict, guard or parse
// failure) is final at once and emitted immediately. Phase 2 classifies
// every surviving script in ONE call, which lets the neural embedding run
// as a single batched pass (see nn.EmbedBatch). Dedup followers are then
// finished by one more pass with dedup off. A batch of one takes par's
// serial path: no goroutine, no dedup map.
package scan

import (
	"context"
	"fmt"
	"sync"
	"time"

	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/par"
	"jsrevealer/internal/rules"
)

// BatchClassifier is optionally implemented by classifiers that split
// detection into a per-script prepare and a batched classify
// (core.Detector does). PrepareBatch runs the per-script front of the
// pipeline under the engine's parser limits and returns opaque state;
// ClassifyBatch consumes a slice of such states and returns one verdict per
// element, in order. Both must be safe for concurrent use; the engine wraps
// each in panic isolation and a deadline. New adapts any other Classifier
// with a per-item wrapper.
type BatchClassifier interface {
	PrepareBatch(ctx context.Context, src string, lim parser.Limits) (any, error)
	ClassifyBatch(ctx context.Context, prepared []any) ([]bool, error)
}

// perItem adapts a plain Classifier to BatchClassifier: PrepareBatch runs
// the whole detection — under the per-file deadline and panic isolation
// every prepare gets — and ClassifyBatch hands the verdicts back. A plain
// Classifier does not see the engine's parser limits.
type perItem struct{ c Classifier }

func (p perItem) PrepareBatch(ctx context.Context, src string, _ parser.Limits) (any, error) {
	malicious, err := p.c.DetectCtx(ctx, src)
	return malicious, err
}

func (perItem) ClassifyBatch(_ context.Context, prepared []any) ([]bool, error) {
	out := make([]bool, len(prepared))
	for i, v := range prepared {
		out[i] = v.(bool)
	}
	return out, nil
}

// item is one script queued for the driver. An in-memory source carries
// its content; a file carries only its path and is read by the worker that
// reaches it, under the size guard (loadFile).
type item struct {
	name string
	src  string
	file bool // name is a path to load lazily
	// err is the walk error that made a directory entry unreadable; the
	// entry's load fails with it.
	err error
	// spent is time an earlier pass already put into the item (a dedup
	// follower's first visit); it counts toward Result.Duration.
	spent time.Duration
}

// pendingScan is one script that left phase 1 without a final result: a
// leader awaiting the batched back half, or a follower awaiting the pass
// that finishes duplicates.
type pendingScan struct {
	idx      int             // slot in the results slice
	src      string          // script content (degrade needs it on batch failure)
	key      cacheKey        // verdict-cache key, zero when caching and auditing are off
	prepared any             // classifier state from PrepareBatch
	res      Result          // partial result (Path/Bytes set)
	prov     provenance      // audit provenance so far
	sctx     context.Context // per-file context: stage timings + trace
	span     *obs.Span       // the item's scan.file span, open until its result is final
	dur      time.Duration   // phase-1 wall time (load, ladder, prepare)
	follower bool            // identical content is pipeline-bound under another slot
}

// batchDedup collapses byte-identical content within one batched run. The
// first script to claim a content key becomes the leader and goes to the
// pipeline; later claimants become followers, skip prepare entirely, and
// are finished after the batch from the cache entry the leader wrote — a
// directory of duplicated bundles costs one pipeline run, not N.
type batchDedup struct {
	mu   sync.Mutex
	seen map[cacheKey]struct{}
}

func newBatchDedup() *batchDedup {
	return &batchDedup{seen: make(map[cacheKey]struct{})}
}

// claim reports whether the caller is the first in this batch to scan
// content with this key (the leader).
func (d *batchDedup) claim(key cacheKey) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.seen[key]; ok {
		return false
	}
	d.seen[key] = struct{}{}
	return true
}

// run scans items and returns one Result per item, in input order. emit,
// when non-nil, receives each Result as soon as it is final, from worker
// goroutines; it must be safe for concurrent use.
func (e *Engine) run(ctx context.Context, items []item, emit func(Result)) []Result {
	ins := newInstruments(obs.FromContext(ctx))
	results := make([]Result, len(items))
	e.pass(ctx, ins, items, results, emit, false)
	// Items skipped by an engine-wide cancellation still get a result (but
	// no audit record: nothing scanned them). Every final Result names its
	// tier, so an empty Tier marks a skipped slot.
	for i := range results {
		if results[i].Tier == "" {
			results[i] = Result{
				Path:    items[i].name,
				Verdict: VerdictFailed,
				Tier:    TierNone,
				Err:     fmt.Errorf("%w: scan cancelled: %v", ErrTimeout, ctx.Err()),
			}
			ins.observe(results[i])
			if emit != nil {
				emit(results[i])
			}
		}
	}
	return results
}

// pass is one sweep of the driver over items: phase 1 through the worker
// pool, phase 2 over the surviving leaders, then one more pass, with dedup
// off, for the followers. Each visit to an item is covered by a "scan.file"
// span that stays open until the visit ends (through phase 2 for a
// leader), so the classifier's own spans nest beneath it.
func (e *Engine) pass(ctx context.Context, ins *instruments, items []item, results []Result, emit func(Result), followers bool) {
	start := time.Now()
	var dedup *batchDedup
	if e.cache != nil && !followers && len(items) > 1 {
		dedup = newBatchDedup()
	}
	pending := make([]*pendingScan, len(items))
	// A cancelled ctx stops dispatch; run gives every skipped slot a result.
	_ = par.ForCtx(ctx, e.cfg.Workers, len(items), func(i int) {
		if !followers {
			// Queue wait: how long the item sat before a worker reached it —
			// the engine's backpressure signal. Followers were counted on
			// their first pass.
			ins.wait.ObserveDuration(time.Since(start))
		}
		fstart := time.Now()
		sctx, sp := obs.StartSpan(ctx, "scan.file")
		ins.inflight.Inc()
		res, prov, p := e.prepareItem(sctx, ins, dedup, items[i])
		ins.inflight.Dec()
		dur := items[i].spent + time.Since(fstart)
		if p == nil {
			sp.End()
			res.Duration = dur
			e.deliver(sctx, ins, res, prov, &results[i], emit)
			return
		}
		p.idx, p.span, p.dur = i, sp, dur
		pending[i] = p
	})
	var leaders, follow []*pendingScan
	for _, p := range pending {
		switch {
		case p == nil:
		case p.follower:
			follow = append(follow, p)
		default:
			leaders = append(leaders, p)
		}
	}
	if len(leaders) > 0 {
		e.classifyLeaders(ctx, ins, leaders, results, emit)
	}
	if len(follow) > 0 {
		// In the common case a follower's second visit is a cache hit on its
		// leader's entry; if the leader's verdict was not cacheable, the
		// follower runs the ladder itself.
		fitems := make([]item, len(follow))
		for k, p := range follow {
			p.span.End()
			fitems[k] = item{name: p.res.Path, src: p.src, spent: p.dur}
		}
		fres := make([]Result, len(follow))
		e.pass(ctx, ins, fitems, fres, emit, true)
		for k, p := range follow {
			results[p.idx] = fres[k]
		}
	}
}

// prepareItem is the per-item ladder of phase 1: load, the shared front
// (guards, cache, dedup, deny list, triage), deobfuscation, the full rules
// pass, and the classifier's prepare under the per-file deadline. A nil
// pendingScan means the result is final.
func (e *Engine) prepareItem(ctx context.Context, ins *instruments, dedup *batchDedup, it item) (Result, provenance, *pendingScan) {
	src := it.src
	if it.file {
		res, prov, data, finished := e.loadFile(ctx, it)
		if finished {
			return res, prov, nil
		}
		src = data
	}
	fctx, res, prov, key, state := e.scanSourceFront(ctx, ins, dedup, it.name, src)
	switch state {
	case frontDone:
		return res, prov, nil
	case frontFollower:
		return res, prov, &pendingScan{src: src, res: res, sctx: fctx, follower: true}
	}
	pctx, cancel := context.WithTimeout(fctx, e.cfg.Timeout)
	defer cancel()
	csrc := src
	if e.deobOn(fctx) {
		// Normalization shares the per-file deadline with classification: a
		// pathological input cannot buy itself extra wall time by being
		// expensive to deobfuscate. The classifier sees the normalized
		// source; caching, auditing, and degradation keep using src.
		csrc, res.DeobPasses = e.normalizeSource(pctx, src)
		prov.deobPasses = res.DeobPasses
	}
	if prov.rset != nil {
		// Full rules pass, post-deobfuscation: signatures and lists see the
		// raw bytes, the normalized source, and (when a rule needs it) the
		// AST. A forcing hit or allow-list clear answers here without ever
		// running the model; annotation hits ride along on its verdict.
		rv := e.evalRules(pctx, prov.rset, it.name, src, csrc)
		res.RuleHits = rv.Hits
		if rv.Action != rules.ActionNone {
			res, prov = e.finishRules(fctx, res, prov, key, rv.Action == rules.ActionMalicious)
			return res, prov, nil
		}
	}
	prepared, err := e.prepare(pctx, csrc)
	if err != nil {
		res, prov = e.finishScan(fctx, res, prov, key, src, false, err)
		return res, prov, nil
	}
	return res, prov, &pendingScan{
		src: src, key: key, prepared: prepared,
		res: res, prov: prov, sctx: fctx,
	}
}

// prepare runs the classifier's front half in an isolated goroutine: panics
// become ErrInternal, and the select enforces the deadline even against a
// classifier that ignores ctx (the cooperative parser cancellation bounds
// how long such a goroutine can linger).
func (e *Engine) prepare(ctx context.Context, src string) (any, error) {
	type outcome struct {
		prepared any
		err      error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("%w: panic: %v", ErrInternal, r)}
			}
		}()
		lim := parser.Limits{MaxDepth: e.cfg.MaxDepth, MaxTokens: e.cfg.MaxTokens}
		p, err := e.bc.PrepareBatch(ctx, src, lim)
		ch <- outcome{prepared: p, err: classifyError(err, ctx)}
	}()
	select {
	case o := <-ch:
		return o.prepared, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
}

// classifyLeaders is phase 2: one ClassifyBatch call over every leader,
// then per-script finalization (cache, metrics, audit, emit). When the
// whole batch fails, each script degrades individually — the fallback is
// per-script, so one poisoned batch still yields a verdict per file. A lone
// leader (always the case for ScanSource) classifies under its own per-file
// context, so embed and classify land in its trace and audit stage timings;
// a larger batch runs under one shared "scan.batch" span.
func (e *Engine) classifyLeaders(ctx context.Context, ins *instruments, leaders []*pendingScan, results []Result, emit func(Result)) {
	bctx := leaders[0].sctx
	var sp *obs.Span
	if len(leaders) > 1 {
		bctx, sp = obs.StartSpan(ctx, "scan.batch")
	}
	prepared := make([]any, len(leaders))
	for i, p := range leaders {
		prepared[i] = p.prepared
	}
	bstart := time.Now()
	verdicts, err := e.classifyBatch(bctx, prepared)
	batchDur := time.Since(bstart)
	sp.End()
	for i, p := range leaders {
		var malicious bool
		if err == nil {
			malicious = verdicts[i]
		}
		res, prov := e.finishScan(p.sctx, p.res, p.prov, p.key, p.src, malicious, err)
		res.Duration = p.dur + batchDur
		p.span.End()
		e.deliver(p.sctx, ins, res, prov, &results[p.idx], emit)
	}
}

// classifyBatch runs the classifier's batched back half with panic
// isolation under one Config.Timeout for the whole batch. The back half is
// bounded matrix arithmetic — no parsing, no per-script pathology — so the
// per-file deadline is a generous bound for it; if it is somehow exceeded,
// every pending script degrades to the fallback rather than being dropped.
func (e *Engine) classifyBatch(ctx context.Context, prepared []any) ([]bool, error) {
	ctx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	defer cancel()
	type outcome struct {
		verdicts []bool
		err      error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("%w: panic: %v", ErrInternal, r)}
			}
		}()
		v, err := e.bc.ClassifyBatch(ctx, prepared)
		ch <- outcome{verdicts: v, err: classifyError(err, ctx)}
	}()
	select {
	case o := <-ch:
		if o.err == nil && len(o.verdicts) != len(prepared) {
			return nil, fmt.Errorf("%w: batch returned %d verdicts for %d scripts",
				ErrInternal, len(o.verdicts), len(prepared))
		}
		return o.verdicts, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
}

// deliver publishes one final Result: metrics, the audit and alert sinks,
// its results slot, and the streaming callback. Duration must be stamped.
func (e *Engine) deliver(ctx context.Context, ins *instruments, res Result, prov provenance, slot *Result, emit func(Result)) {
	ins.observe(res)
	e.recordResult(ctx, res, prov)
	*slot = res
	if emit != nil {
		emit(res)
	}
}
