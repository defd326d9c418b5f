package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"jsrevealer/internal/core"
	"jsrevealer/internal/deobfuscate"
	"jsrevealer/internal/js/lexer"
	"jsrevealer/internal/js/parser"
	"jsrevealer/internal/ml/classify"
	"jsrevealer/internal/ml/cluster"
	"jsrevealer/internal/ml/linalg"
	"jsrevealer/internal/ml/nn"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/pathctx"
	"jsrevealer/internal/rules"
	"jsrevealer/internal/scan"
	"jsrevealer/internal/serve"
	"jsrevealer/internal/triage"
)

// layerUnits are the per-layer metrics every traced run reports.
var layerUnits = map[string]string{
	"lexer.tokenize_us":         "us",
	"parser.lex_us":             "us",
	"parser.parse_us":           "us",
	"dataflow.analyze_us":       "us",
	"pathctx.extract_us":        "us",
	"pathctx.paths_per_script":  "count",
	"nn.keyof_us":               "us",
	"nn.embed_us":               "us",
	"nn.embed_batch_us":         "us",
	"cluster.assign_us":         "us",
	"cluster.assign_mbytes":     "MB",
	"core.featurize_us":         "us",
	"classify.predict_us":       "us",
	"core.detect_us":            "us",
	"core.detect_allocs":        "count",
	"core.classify_batch_us":    "us",
	"core.ladder_residual_us":   "us",
	"core.share.parse":          "ratio",
	"core.share.pathctx":        "ratio",
	"core.share.embed":          "ratio",
	"core.share.assign":         "ratio",
	"core.share.predict":        "ratio",
	"triage.score_us":           "us",
	"triage.clear_ratio":        "ratio",
	"deobfuscate.normalize_us":  "us",
	"deobfuscate.rewrite_ratio": "ratio",
	"rules.eval_text_us":        "us",
	"rules.eval_us":             "us",
	"rules.deny_ratio":          "ratio",
	"scan.cache_hit_us":         "us",
	"scan.cache_hit_allocs":     "count",
	"scan.scan_source_us":       "us",
	"scan.scan_sources_us":      "us",
	"scan.cache_hit_ratio":      "ratio",
	"scan.pipeline_ratio":       "ratio",
	"serve.detect_us":           "us",
	"serve.detect_allocs":       "count",
	"serve.detect_overhead_us":  "us",
	"serve.scan_batch_us":       "us",
	"serve.job_roundtrip_us":    "us",
	"serve.reject_ratio":        "ratio",
	"bench.trace_overhead_us":   "us",
}

const (
	// ladderSample is how many of the workload's distinct scripts the
	// ladder replays per pass.
	ladderSample = 64
	// replayPrefix bounds the script stream replayed to measure the scan
	// layer's tier ratios.
	replayPrefix = 384
	// allocRounds is the fixed loop length behind each alloc count.
	allocRounds = 400
)

// modelFile mirrors the detector file's learned parts, which core.Detector
// keeps private: the ladder calls the embedding model and the forest
// directly.
type modelFile struct {
	Model  *nn.Model              `json:"model"`
	Forest *classify.RandomForest `json:"forest"`
}

// stack is the in-process system under test, built as the CLI builds it.
type stack struct {
	det      *core.Detector
	model    *nn.Model
	forest   *classify.RandomForest
	cents    [][]float64
	uniform  bool
	pathOpts pathctx.Options
	rules    *rules.Set
	triage   *triage.Scorer
	deob     *deobfuscate.Pipeline
	lim      parser.Limits
	scanCfg  scan.Config
}

func loadStack(e *env, path string) (*stack, error) {
	det, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf modelFile
	if err := json.Unmarshal(b, &mf); err != nil {
		return nil, err
	}
	if mf.Model == nil || mf.Forest == nil {
		return nil, errors.New("model file lacks model or forest")
	}
	set, err := rules.Load(e.rulesDir)
	if err != nil {
		return nil, err
	}
	set.Gen = 1
	st := &stack{
		det: det, model: mf.Model, forest: mf.Forest,
		uniform:  det.Options().UniformWeights,
		pathOpts: det.Options().Path,
		rules:    set,
		triage:   triage.New(triage.Config{Threshold: triage.DefaultThreshold}),
		deob:     deobfuscate.NewPipeline(deobfuscate.Config{Enabled: true}),
		lim:      parser.Limits{MaxDepth: parser.DefaultMaxDepth, MaxTokens: scan.DefaultMaxTokens},
	}
	for _, f := range det.Features() {
		st.cents = append(st.cents, f.Centroid)
	}
	st.scanCfg = scan.Config{
		Triage:      triage.Config{Threshold: triage.DefaultThreshold},
		Deobfuscate: deobfuscate.Config{Enabled: true},
		Rules:       rules.StaticProvider{Set: set},
	}
	return st, nil
}

// scriptRun is what one ladder pass learned about one script.
type scriptRun struct {
	csrc     string // the classifier's view (deobfuscated)
	keys     []nn.PathKey
	verdict  bool
	parsed   bool
	paths    int
	lex      time.Duration
	parse    time.Duration
	dataflow time.Duration
	cleared  bool
	denied   bool
	rewrote  bool
}

// ladder runs one script through every layer in pipeline order, a span
// around each call, and checks that the composed parse → pathctx → KeyOf →
// Embed → Assign → featurize → Predict ladder agrees with the detector's
// own DetectWithLimits on the same (deobfuscated) source.
func (st *stack) ladder(ctx context.Context, tr *tracer, sid int32, name, src string) (scriptRun, string) {
	var r scriptRun
	root := tr.start("script", 0, sid)
	defer tr.end(root)

	s := tr.start("triage.score", root, sid)
	r.cleared = st.triage.Clear(src)
	tr.end(s)

	s = tr.start("rules.eval_text", root, sid)
	tv := st.rules.EvalText(ctx, src)
	tr.end(s)
	r.denied = tv.Action == rules.ActionMalicious

	s = tr.start("deobfuscate.normalize", root, sid)
	csrc, rep, err := st.deob.Normalize(ctx, src, st.lim)
	tr.end(s)
	if err != nil || rep == nil {
		csrc = src
	}
	r.csrc = csrc
	r.rewrote = rep != nil && rep.Total() > 0

	lad := tr.start("ladder", root, sid)
	s = tr.start("parser.parse", lad, sid)
	prog, ptm, perr := parser.ParseTimed(csrc, st.lim)
	tr.end(s)
	r.lex, r.parse = ptm.Lex, ptm.Parse
	if perr == nil {
		r.parsed = true
		s = tr.start("pathctx.extract", lad, sid)
		paths, xtm := pathctx.ExtractTimed(prog, st.pathOpts)
		tr.end(s)
		r.dataflow, r.paths = xtm.DataFlow, len(paths)

		s = tr.start("nn.keyof", lad, sid)
		r.keys = make([]nn.PathKey, len(paths))
		for i, p := range paths {
			r.keys[i] = st.model.KeyOf(p.ComponentHashes())
		}
		tr.end(s)

		s = tr.start("nn.embed", lad, sid)
		embs := st.model.Embed(r.keys)
		tr.end(s)

		s = tr.start("cluster.assign", lad, sid)
		idx := make([]int, len(embs))
		for i, e := range embs {
			idx[i] = cluster.Assign(st.cents, e.Vector)
		}
		tr.end(s)

		s = tr.start("core.featurize", lad, sid)
		feat := make([]float64, len(st.cents))
		for i, e := range embs {
			if idx[i] < 0 {
				continue
			}
			if st.uniform {
				feat[idx[i]] += 1 / float64(len(embs))
			} else {
				feat[idx[i]] += e.Weight
			}
		}
		feat = linalg.MinMaxNormalize(feat)
		tr.end(s)

		s = tr.start("classify.predict", lad, sid)
		r.verdict = st.forest.Predict(feat)
		tr.end(s)
	}
	tr.end(lad)

	s = tr.start("rules.eval", root, sid)
	in := rules.Input{Name: name, Raw: src, Normalized: csrc}
	if st.rules.NeedsAST() {
		in.Prog, _ = parser.ParseWithLimits(csrc, st.lim)
	}
	st.rules.Eval(ctx, in)
	tr.end(s)

	s = tr.start("core.detect", root, sid)
	dv, derr := st.det.DetectWithLimits(ctx, csrc, st.lim)
	tr.end(s)

	s = tr.start("lexer.tokenize", root, sid)
	lexer.TokenizeLimit(csrc, st.lim.MaxTokens)
	tr.end(s)

	switch {
	case (derr == nil) != r.parsed:
		return r, "ladder and Detect disagree on whether the script parses"
	case r.parsed && dv != r.verdict:
		return r, "ladder verdict differs from Detect"
	}
	return r, ""
}

// passFigures are one ladder pass's per-script means, keyed by metric.
type passFigures map[string]float64

func perScript(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }

// runTraced replays the workload's inputs in-process, layer by layer, and
// reports the per-layer metrics. Nothing inside the program is traced: the
// spans are recorded here, around each call into a layer.
func runTraced(e *env, workload string, seed int64, seconds float64, spanPath string, o *outcome) error {
	var scripts []script
	var stream []int // the workload's script sequence, as the server sees it
	primed := 0      // leading stream entries sent before timing starts
	switch workload {
	case "bulk-cold":
		scripts = bulkMix(seed, 0)
		for i := range scripts {
			stream = append(stream, i)
		}
	case "serve-repeat":
		scripts = genScripts(seed, repeatWorkingSet)
		for i := 0; i < 2*len(scripts); i++ {
			stream = append(stream, i%len(scripts))
		}
		primed = len(scripts)
	}
	model := e.model()
	if _, err := e.train(model); err != nil {
		return err
	}
	st, err := loadStack(e, model)
	if err != nil {
		return err
	}
	ctx := context.Background()
	// The ladder sample: distinct scripts drawn by seed. Evenly spaced
	// positions would line up with the generator's positional layout of
	// malicious, obfuscated and IOC scripts and miss some kinds entirely.
	sample := rand.New(rand.NewSource(seed)).Perm(len(scripts))
	sample = sample[:min(ladderSample, len(sample))]
	tr := newTracer(1 << 18)
	budget := time.Duration(seconds * float64(time.Second))
	began := time.Now()

	// Ladder passes over the sample; the first pass's runs feed the batch
	// and scan checks below.
	var runs []scriptRun
	var passes []passFigures
	sid := int32(0)
	for pass := 0; pass < 2 || (time.Since(began) < budget*45/100 && pass < 40); pass++ {
		first := len(tr.spans)
		var lex, parse, flow time.Duration
		var paths, cleared, denied, rewrote int
		cur := make([]scriptRun, len(sample))
		for k, i := range sample {
			sid++
			r, reason := st.ladder(ctx, tr, sid, scripts[i].Name, scripts[i].Source)
			o.attempted++
			if reason != "" {
				o.fail(reason)
			}
			cur[k] = r
			lex += r.lex
			parse += r.parse
			flow += r.dataflow
			paths += r.paths
			cleared += b2i(r.cleared)
			denied += b2i(r.denied)
			rewrote += b2i(r.rewrote)
		}
		if runs == nil {
			runs = cur
		}
		lt := aggregate(tr.spans[first:])
		n := len(sample)
		f := passFigures{
			"lexer.tokenize_us":         perScript(lt.total["lexer.tokenize"], n),
			"parser.lex_us":             perScript(lex, n),
			"parser.parse_us":           perScript(parse, n),
			"dataflow.analyze_us":       perScript(flow, n),
			"pathctx.extract_us":        perScript(lt.total["pathctx.extract"], n),
			"nn.keyof_us":               perScript(lt.total["nn.keyof"], n),
			"nn.embed_us":               perScript(lt.total["nn.embed"], n),
			"cluster.assign_us":         perScript(lt.total["cluster.assign"], n),
			"core.featurize_us":         perScript(lt.total["core.featurize"], n),
			"classify.predict_us":       perScript(lt.total["classify.predict"], n),
			"core.detect_us":            perScript(lt.total["core.detect"], n),
			"triage.score_us":           perScript(lt.total["triage.score"], n),
			"deobfuscate.normalize_us":  perScript(lt.total["deobfuscate.normalize"], n),
			"rules.eval_text_us":        perScript(lt.total["rules.eval_text"], n),
			"rules.eval_us":             perScript(lt.total["rules.eval"], n),
			"pathctx.paths_per_script":  float64(paths) / float64(n),
			"triage.clear_ratio":        float64(cleared) / float64(n),
			"rules.deny_ratio":          float64(denied) / float64(n),
			"deobfuscate.rewrite_ratio": float64(rewrote) / float64(n),
		}
		ladderSum := lt.total["ladder"] - lt.self["ladder"]
		detect := lt.total["core.detect"]
		f["core.ladder_residual_us"] = perScript(detect-ladderSum, n)
		f["core.share.parse"] = float64(lt.total["parser.parse"]) / float64(detect)
		f["core.share.pathctx"] = float64(lt.total["pathctx.extract"]) / float64(detect)
		f["core.share.embed"] = float64(lt.total["nn.keyof"]+lt.total["nn.embed"]) / float64(detect)
		f["core.share.assign"] = float64(lt.total["cluster.assign"]+lt.total["core.featurize"]) / float64(detect)
		f["core.share.predict"] = float64(lt.total["classify.predict"]) / float64(detect)
		passes = append(passes, f)
	}
	for name := range passes[0] {
		var xs []float64
		for _, f := range passes {
			xs = append(xs, f[name])
		}
		o.set(name, median(xs))
	}
	spansPerScript := float64(len(tr.spans)) / float64(len(passes)*len(sample))
	o.set("bench.trace_overhead_us", spansPerScript*spanCost())
	o.detail("spans_per_script", spansPerScript, "count")
	o.detail("ladder_passes", float64(len(passes)), "count")
	o.detail("ladder_scripts", float64(len(sample)), "count")

	// Batch path: PrepareBatch/ClassifyBatch must agree with the single
	// path; EmbedBatch is timed on the ladder's own keys.
	var batchUS, embedBatchUS []float64
	batched := 0
	for round := 0; round < 2 || (time.Since(began) < budget*60/100 && round < 20); round++ {
		var classifyT, embedT time.Duration
		n := 0
		for lo := 0; lo < len(runs); lo += batchSize {
			hi := min(lo+batchSize, len(runs))
			var prepared []any
			var keySets [][]nn.PathKey
			var want []bool
			for k := lo; k < hi; k++ {
				if !runs[k].parsed {
					continue
				}
				p, err := st.det.PrepareBatch(ctx, runs[k].csrc, st.lim)
				if err != nil {
					o.fail("PrepareBatch failed where the single path parsed")
					continue
				}
				prepared = append(prepared, p)
				keySets = append(keySets, runs[k].keys)
				want = append(want, runs[k].verdict)
			}
			if len(prepared) == 0 {
				continue
			}
			s := tr.start("core.classify_batch", 0, 0)
			got, err := st.det.ClassifyBatch(ctx, prepared)
			tr.end(s)
			classifyT += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
			if err != nil {
				return fmt.Errorf("ClassifyBatch: %w", err)
			}
			for k := range got {
				o.attempted++
				if got[k] != want[k] {
					o.fail("ClassifyBatch verdict differs from the single path")
				}
			}
			s = tr.start("nn.embed_batch", 0, 0)
			st.model.EmbedBatch(keySets)
			tr.end(s)
			embedT += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
			n += len(prepared)
		}
		batched = n
		batchUS = append(batchUS, perScript(classifyT, n))
		embedBatchUS = append(embedBatchUS, perScript(embedT, n))
	}
	o.set("core.classify_batch_us", median(batchUS))
	o.set("nn.embed_batch_us", median(embedBatchUS))
	o.detail("batch_scripts", float64(batched), "count")

	// cluster.assign_mbytes is computed, not measured: each path's vector
	// is compared against every centroid, dim float64s each.
	dim := float64(st.model.Config().Dim)
	o.set("cluster.assign_mbytes", o.metrics["pathctx.paths_per_script"]*float64(len(st.cents))*dim*8/1e6)

	// Exact count: allocations per DetectWithLimits over a fixed loop.
	fixed := runs[:min(8, len(runs))]
	o.set("core.detect_allocs", allocsPer(allocRounds/40, nil, func() {
		for r := 0; r < allocRounds/40; r++ {
			for _, fr := range fixed {
				st.det.DetectWithLimits(ctx, fr.csrc, st.lim)
			}
		}
	})/float64(len(fixed)))

	if err := scanLayer(ctx, st, tr, scripts, sample, stream, primed, runs, o); err != nil {
		return err
	}
	if err := serveLayer(e, st, tr, scripts, sample, model, o); err != nil {
		return err
	}
	o.detail("spans_recorded", float64(len(tr.spans)), "count")
	o.detail("spans_dropped", float64(tr.dropped), "count")
	return tr.write(spanPath)
}

// scanLayer measures the scan engine: cache hits (time and exact allocs),
// cold ScanSource and batched ScanSources, and the tier ratios of the
// workload's own script stream.
func scanLayer(ctx context.Context, st *stack, tr *tracer, scripts []script, sample, stream []int, primed int, runs []scriptRun, o *outcome) error {
	// Cold single and batched scans on an engine without a cache. Where
	// the full pipeline answered, its verdict must match the ladder's.
	cold := scan.New(st.det, withCache(st.scanCfg, -1))
	var single time.Duration
	for k, i := range sample {
		s := tr.start("scan.scan_source", 0, 0)
		res := cold.ScanSource(ctx, scripts[i].Name, scripts[i].Source)
		tr.end(s)
		single += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
		o.attempted++
		if res.Verdict != scan.VerdictBenign && res.Verdict != scan.VerdictMalicious {
			o.fail("ScanSource gave no clean verdict")
		} else if res.Tier == scan.TierPipeline && res.Malicious != runs[k].verdict {
			o.fail("ScanSource pipeline verdict differs from the ladder")
		}
	}
	o.set("scan.scan_source_us", perScript(single, len(sample)))
	srcs := make([]scan.Source, len(sample))
	for k, i := range sample {
		srcs[k] = scan.Source{Name: scripts[i].Name, Content: scripts[i].Source}
	}
	var batched time.Duration
	for lo := 0; lo < len(srcs); lo += batchSize {
		s := tr.start("scan.scan_sources", 0, 0)
		cold.ScanSources(ctx, srcs[lo:min(lo+batchSize, len(srcs))], func(scan.Result) {})
		tr.end(s)
		batched += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
	}
	o.set("scan.scan_sources_us", perScript(batched, len(srcs)))
	o.detail("scan_scripts", float64(len(srcs)), "count")

	// Tier ratios over the workload's stream, primed as the workload is.
	eng := scan.New(st.det, st.scanCfg)
	for _, i := range stream[:primed] {
		eng.ScanSource(ctx, scripts[i].Name, scripts[i].Source)
	}
	replay := stream[primed:]
	replay = replay[:min(len(replay), replayPrefix)]
	hits, pipeline := 0, 0
	for _, i := range replay {
		res := eng.ScanSource(ctx, scripts[i].Name, scripts[i].Source)
		hits += b2i(res.Tier == scan.TierCache)
		pipeline += b2i(res.Tier == scan.TierPipeline)
	}
	o.set("scan.cache_hit_ratio", float64(hits)/float64(len(replay)))
	o.set("scan.pipeline_ratio", float64(pipeline)/float64(len(replay)))
	o.detail("replayed_scripts", float64(len(replay)), "count")

	// Cache hits: prime the sample, then every call must be a hit.
	for _, i := range sample {
		eng.ScanSource(ctx, scripts[i].Name, scripts[i].Source)
	}
	var hit time.Duration
	iters := 0
	for round := 0; round < 40; round++ {
		for _, i := range sample {
			s := tr.start("scan.cache_hit", 0, 0)
			res := eng.ScanSource(ctx, scripts[i].Name, scripts[i].Source)
			tr.end(s)
			hit += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
			iters++
			if res.Tier != scan.TierCache {
				return errors.New("primed content missed the verdict cache")
			}
		}
	}
	o.set("scan.cache_hit_us", perScript(hit, iters))
	o.detail("cache_hit_iterations", float64(iters), "count")
	src := scripts[sample[0]]
	o.set("scan.cache_hit_allocs", allocsPer(allocRounds, nil, func() {
		for r := 0; r < allocRounds; r++ {
			eng.ScanSource(ctx, src.Name, src.Source)
		}
	}))
	return nil
}

func withCache(c scan.Config, size int) scan.Config {
	c.CacheSize = size
	return c
}

// serveLayer measures the serving layer in-process through
// Handler().ServeHTTP: a /detect cache hit (time and exact allocs), a /scan
// batch and a /jobs round trip over cached content, and the share of
// requests admission refused.
func serveLayer(e *env, st *stack, tr *tracer, scripts []script, sample []int, model string, o *outcome) error {
	srv, err := serve.New(serve.Config{
		ModelPath: model,
		Scan:      withCache(st.scanCfg, 0),
		RulesDir:  e.rulesDir,
	}, obs.NewRegistry())
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	requests, rejected := 0, 0
	call := func(method, target string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
		requests++
		if w.Code == http.StatusTooManyRequests || w.Code == http.StatusServiceUnavailable {
			rejected++
		}
		return w
	}
	set := sample[:min(batchSize, len(sample))]
	for _, i := range set {
		if w := call("POST", "/detect?name="+scripts[i].Name, []byte(scripts[i].Source)); w.Code != http.StatusOK {
			return fmt.Errorf("in-process /detect status %d", w.Code)
		}
	}
	var detect time.Duration
	n := 0
	for round := 0; round < 60; round++ {
		for _, i := range set {
			s := tr.start("serve.detect", 0, 0)
			w := call("POST", "/detect?name="+scripts[i].Name, []byte(scripts[i].Source))
			tr.end(s)
			detect += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
			n++
			var l line
			if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &l) != nil || l.Tier != "cache" {
				return errors.New("in-process /detect on primed content was not a cache hit")
			}
		}
	}
	o.set("serve.detect_us", perScript(detect, n))
	o.set("serve.detect_overhead_us", o.metrics["serve.detect_us"]-o.metrics["scan.cache_hit_us"])

	// Exact count: requests and recorders are built before the counted
	// loop, so only the handler's own allocations are counted.
	src := scripts[set[0]]
	reqs := make([]*http.Request, allocRounds)
	recs := make([]*httptest.ResponseRecorder, allocRounds)
	build := func() {
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", "/detect?name="+src.Name, bytes.NewReader([]byte(src.Source)))
			recs[i] = httptest.NewRecorder()
		}
	}
	o.set("serve.detect_allocs", allocsPer(allocRounds, build, func() {
		for i := range reqs {
			h.ServeHTTP(recs[i], reqs[i])
		}
	}))

	names := make([]string, len(set))
	scs := make([]*script, len(set))
	for k, i := range set {
		names[k], scs[k] = scripts[i].Name, &scripts[i]
	}
	body := batchBody(names, scs)
	var batch, job time.Duration
	rounds := 20
	for round := 0; round < rounds; round++ {
		s := tr.start("serve.scan_batch", 0, 0)
		w := call("POST", "/scan", body)
		tr.end(s)
		batch += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
		if w.Code != http.StatusOK || bytes.Count(w.Body.Bytes(), []byte("\n")) != len(set) {
			return errors.New("in-process /scan did not answer every script")
		}
		s = tr.start("serve.job_roundtrip", 0, 0)
		err := jobRoundTrip(call, body, len(set))
		tr.end(s)
		job += time.Duration(tr.spans[s-1].End - tr.spans[s-1].Start)
		if err != nil {
			return err
		}
	}
	o.set("serve.scan_batch_us", float64(batch)/1e3/float64(rounds))
	o.set("serve.job_roundtrip_us", float64(job)/1e3/float64(rounds))
	o.set("serve.reject_ratio", float64(rejected)/float64(requests))
	o.detail("serve_requests", float64(requests), "count")
	return nil
}

// jobRoundTrip submits a /jobs batch and polls it until done.
func jobRoundTrip(call func(string, string, []byte) *httptest.ResponseRecorder, body []byte, want int) error {
	w := call("POST", "/jobs", body)
	var sub struct {
		ID string `json:"id"`
	}
	if w.Code != http.StatusAccepted || json.Unmarshal(w.Body.Bytes(), &sub) != nil {
		return fmt.Errorf("in-process /jobs status %d", w.Code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		w = call("GET", "/jobs/"+sub.ID, nil)
		var v struct {
			State   string `json:"state"`
			Results []line `json:"results"`
		}
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &v) != nil {
			return fmt.Errorf("in-process job poll status %d", w.Code)
		}
		if v.State == "done" {
			if len(v.Results) != want {
				return errors.New("in-process job lost scripts")
			}
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("in-process job not done within 30s")
}

// allocsPer counts heap allocations per operation over fn, which performs
// ops operations; setup (may be nil) runs uncounted before each call. As in
// testing.AllocsPerRun, the collector is paused, GOMAXPROCS is 1 (so
// sync.Pool objects stay on the one P) and the count is divided as an
// integer: the server's idle goroutines add a handful of allocations per
// loop, which truncation drops, so the count repeats exactly between runs.
func allocsPer(ops int, setup, fn func()) float64 {
	if setup != nil {
		setup()
	}
	fn() // warm pools and lazily built state
	if setup != nil {
		setup()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(ops))
}

// spanCost is the tracing overhead of one span, in microseconds: the time
// of a start/end pair on a recording tracer minus the same pair on a
// disabled one. A whole ladder pass varies by more than the tracer costs,
// so the overhead is measured here, at the span boundary, and scaled by
// the spans a script records.
func spanCost() float64 {
	const n = 1 << 16
	probe := newTracer(n)
	pair := func() float64 {
		probe.spans = probe.spans[:0]
		t := time.Now()
		for i := 0; i < n; i++ {
			probe.end(probe.start("probe", 0, 0))
		}
		return float64(time.Since(t)) / 1e3 / n
	}
	var on, off []float64
	for round := 0; round < 5; round++ {
		probe.on = true
		on = append(on, pair())
		probe.on = false
		off = append(off, pair())
	}
	return median(on) - median(off)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
