// The engine's side of the verdict audit trail: provenance is collected
// where the verdict is decided (the driver knows the cache outcome and
// which tier answered; the context carries the request metadata and trace)
// and written as one audit.Record per result, plus one webhook alert for
// alert-worthy rule verdicts. Everything here is gated on Config.Audit and
// Config.Alert — with both nil it costs nothing on the hot path.
package scan

import (
	"context"
	"encoding/hex"
	"time"

	"jsrevealer/internal/alert"
	"jsrevealer/internal/audit"
	"jsrevealer/internal/obs"
	"jsrevealer/internal/rules"
)

// provenance is the audit-relevant context of one verdict, threaded out of
// the driver alongside the Result. The zero value (auditing disabled)
// carries nothing — except rset, which is pinned for every scan so one
// file never mixes rule generations across a hot reload.
type provenance struct {
	sha        string            // hex content digest
	cache      string            // hit | miss | off
	tier       string            // triage | rules | cache | pipeline | fallback | none
	cacheTier  string            // on a hit: the tier that produced the cached entry
	deobPasses []string          // deobfuscation passes that rewrote the script
	stages     *obs.StageTimings // per-stage durations, nil unless auditing
	rset       *rules.Set        // rule set pinned for this scan; nil = rules off
}

// tierFor derives the audit tier from how the verdict was produced.
func tierFor(v Verdict, fromCache bool) string {
	switch {
	case fromCache:
		return TierCache
	case v == VerdictDegraded:
		return TierFallback
	case v == VerdictFailed:
		return TierNone
	default:
		return TierPipeline
	}
}

// recordResult reports one finished result to the configured sinks: an
// audit record, and — when the rule hits warrant one (deny or forcing
// signature, rules.ShouldAlert) — a webhook alert carrying the same
// provenance, so the two streams join on sha256 or trace_id. Call it after
// Duration is stamped. No-op when both sinks are disabled.
func (e *Engine) recordResult(ctx context.Context, res Result, prov provenance) {
	if e.cfg.Audit == nil && e.cfg.Alert == nil {
		return
	}
	m := audit.MetaFromContext(ctx)
	var traceID string
	if sp := obs.SpanFromContext(ctx); sp != nil {
		traceID = sp.TraceID.String()
	} else if rc, ok := obs.RemoteFromContext(ctx); ok {
		traceID = rc.TraceID.String()
	}
	if e.cfg.Audit != nil {
		rec := audit.Record{
			Name:       res.Path,
			SHA256:     prov.sha,
			Verdict:    res.Verdict.String(),
			Malicious:  res.Malicious,
			Bytes:      res.Bytes,
			DurationMS: float64(res.Duration) / float64(time.Millisecond),
			Tier:       prov.tier,
			Cache:      prov.cache,
			CacheTier:  prov.cacheTier,
			Model:      e.cfg.AuditModel,
			Source:     m.Source,
			Job:        m.Job,
			Attempt:    m.Attempt,
			RequestID:  m.RequestID,
			DeobPasses: prov.deobPasses,
			RuleHits:   res.RuleHits,
			TraceID:    traceID,
		}
		if res.Err != nil {
			rec.Reason = Reason(res.Err)
			rec.Error = res.Err.Error()
		}
		if prov.stages != nil {
			if snap := prov.stages.Snapshot(); len(snap) > 0 {
				rec.StagesMS = make(map[string]float64, len(snap))
				for stage, d := range snap {
					rec.StagesMS[stage] = float64(d) / float64(time.Millisecond)
				}
			}
		}
		e.cfg.Audit.Write(rec)
	}
	if e.cfg.Alert != nil && rules.ShouldAlert(res.RuleHits) {
		e.cfg.Alert.Publish(alert.Alert{
			Name:      res.Path,
			SHA256:    prov.sha,
			Verdict:   res.Verdict.String(),
			Hits:      res.RuleHits,
			Source:    m.Source,
			TraceID:   traceID,
			RequestID: m.RequestID,
		})
	}
}

// hexKey renders a cache key as the audit trail's content digest.
func hexKey(k cacheKey) string {
	return hex.EncodeToString(k[:])
}
