package scan

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"jsrevealer/internal/audit"
	"jsrevealer/internal/obs"
)

// openAudit builds an audit log in a temp dir and returns it with a reader
// for its records.
func openAudit(t *testing.T) (*audit.Log, func() []audit.Record) {
	t.Helper()
	dir := t.TempDir()
	log, err := audit.Open(dir, audit.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log, func() []audit.Record {
		t.Helper()
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join(dir, audit.ActiveFile))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var recs []audit.Record
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r audit.Record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("bad audit line %q: %v", sc.Text(), err)
			}
			recs = append(recs, r)
		}
		return recs
	}
}

func TestScanAuditTrail(t *testing.T) {
	log, records := openAudit(t)
	flagEvil := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		// A child span inside the pipeline must land in stages_ms.
		_, sp := obs.StartSpan(ctx, "classify")
		sp.End()
		return src == "evil()", nil
	})
	eng := New(flagEvil, Config{Workers: 1, Audit: log, AuditModel: "modelsha"})

	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	ctx = audit.WithMeta(ctx, audit.Meta{Source: "scan", RequestID: "req-7"})
	remote := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: 9, Sampled: true}
	ctx = obs.ContextWithRemote(ctx, remote)

	res := eng.ScanSource(ctx, "evil.js", "evil()")
	if res.Verdict != VerdictMalicious {
		t.Fatalf("verdict = %v", res.Verdict)
	}

	recs := records()
	if len(recs) != 1 {
		t.Fatalf("got %d audit records, want 1", len(recs))
	}
	r := recs[0]
	sum := sha256.Sum256([]byte("evil()"))
	if r.SHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("sha = %s, want digest of the content", r.SHA256)
	}
	if r.Kind != "verdict" || r.Verdict != "MALICIOUS" || !r.Malicious {
		t.Errorf("verdict fields = %+v", r)
	}
	if r.Tier != "pipeline" || r.Cache != "miss" {
		t.Errorf("tier/cache = %s/%s, want pipeline/miss", r.Tier, r.Cache)
	}
	if r.Model != "modelsha" || r.Source != "scan" || r.RequestID != "req-7" {
		t.Errorf("provenance = %+v", r)
	}
	if r.TraceID != remote.TraceID.String() {
		t.Errorf("trace id = %s, want the caller's %s", r.TraceID, remote.TraceID)
	}
	if _, ok := r.StagesMS["classify"]; !ok {
		t.Errorf("stages = %v, want a classify entry", r.StagesMS)
	}
	if r.Bytes != int64(len("evil()")) || r.DurationMS < 0 {
		t.Errorf("size/duration = %+v", r)
	}

	// A rescan of identical content is answered (and audited) from the cache.
	eng.ScanSource(ctx, "evil-again.js", "evil()")
	recs = records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[1].Tier != "cache" || recs[1].Cache != "hit" {
		t.Errorf("cached record tier/cache = %s/%s", recs[1].Tier, recs[1].Cache)
	}
	if recs[1].SHA256 != recs[0].SHA256 {
		t.Error("cache-hit record lost the content digest")
	}
}

// TestScanAuditDetectorStages: with a real core.Detector, a pipeline-tier
// ScanSource record still carries the detector's embed and classify stage
// timings. ScanSource is a batch of one, so its back half must run under
// the file's own context, not a shared batch context.
func TestScanAuditDetectorStages(t *testing.T) {
	det, samples := trainedDetector(t)
	log, records := openAudit(t)
	eng := New(det, Config{Audit: log, CacheSize: -1})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	if res := eng.ScanSource(ctx, "s.js", samples[0].Source); res.Tier != TierPipeline {
		t.Fatalf("tier = %q (err %v), want pipeline", res.Tier, res.Err)
	}
	recs := records()
	if len(recs) != 1 {
		t.Fatalf("got %d audit records, want 1", len(recs))
	}
	for _, stage := range []string{"embed", "classify"} {
		if _, ok := recs[0].StagesMS[stage]; !ok {
			t.Errorf("stages_ms = %v, want a %s entry", recs[0].StagesMS, stage)
		}
	}
}

func TestScanAuditDegradedAndFailed(t *testing.T) {
	log, records := openAudit(t)
	boom := ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return false, errors.New("pipeline down")
	})
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())

	// Fallback covers the failure: tier=fallback with the taxonomy reason.
	eng := New(boom, Config{Workers: 1, Audit: log, CacheSize: -1})
	if res := eng.ScanSource(ctx, "deg.js", "x()"); res.Verdict != VerdictDegraded {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	// Fallback disabled: no verdict at all, tier=none.
	strict := New(boom, Config{Workers: 1, Audit: log, CacheSize: -1, NoFallback: true})
	if res := strict.ScanSource(ctx, "fail.js", "x()"); res.Verdict != VerdictFailed {
		t.Fatalf("verdict = %v", res.Verdict)
	}

	recs := records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Tier != "fallback" || recs[0].Verdict != "DEGRADED" || recs[0].Reason != "internal" {
		t.Errorf("degraded record = %+v", recs[0])
	}
	if recs[0].Cache != "off" {
		t.Errorf("cache = %s, want off (cache disabled)", recs[0].Cache)
	}
	if recs[1].Tier != "none" || recs[1].Verdict != "FAILED" || recs[1].Error == "" {
		t.Errorf("failed record = %+v", recs[1])
	}
}

func TestScanAuditDisabledZeroRecords(t *testing.T) {
	// The default engine has no audit sink; nothing must be collected and
	// nothing must panic.
	eng := New(ClassifierFunc(func(ctx context.Context, src string) (bool, error) {
		return false, nil
	}), Config{Workers: 1})
	res := eng.ScanSource(obs.WithRegistry(context.Background(), obs.NewRegistry()), "a.js", "a()")
	if res.Verdict != VerdictBenign || res.Err != nil {
		t.Fatalf("result = %+v", res)
	}
}

// BenchmarkScanSourceTraced is BenchmarkScanSource with the full
// observability stack on: trace store, stage timings, and the audit log.
// Compared against BenchmarkScanSource it bounds what tracing+audit cost
// the hot path.
func BenchmarkScanSourceTraced(b *testing.B) {
	det, samples := trainedDetector(b)
	dir := b.TempDir()
	log, err := audit.Open(dir, audit.Options{Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	eng := New(det, Config{CacheSize: -1, Audit: log, AuditModel: "benchsha"})
	store := obs.NewTraceStore(obs.TraceStoreOptions{})
	ctx := obs.WithTraceStore(obs.WithRegistry(context.Background(), obs.NewRegistry()), store)
	ctx = audit.WithMeta(ctx, audit.Meta{Source: "scan", RequestID: "bench"})
	src := samples[0].Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.ScanSource(ctx, "bench.js", src); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
