// Package runner is the experiment execution engine: it turns the
// evaluation's (application × protocol × configuration) matrix into
// fingerprinted jobs, executes them on a bounded worker pool with per-job
// panic capture, reuses results through a content-addressed ResultStore,
// and gates fresh reports against a committed baseline.
//
// Every job is a pure function of its spec — the simulator is
// deterministic and shares no mutable global state — so results are safe
// to compute concurrently, deduplicate by fingerprint, and replay from a
// cache: a report produced with 8 workers is bit-identical to one
// produced with 1, and a warm cache turns a full paperbench sweep into
// pure lookups.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"lazyrc/internal/apps"
	"lazyrc/internal/config"
)

// fingerprintVersion is folded into every fingerprint. Bump it when the
// meaning of a job changes without its spec changing (simulator semantics,
// result schema) to invalidate stale caches wholesale.
// v2: results grew the telemetry metrics digest; cached v1 results lack
// it and must be recomputed.
// v3: results grew the causal span count and digest; cached v2 results
// lack them and must be recomputed.
// v4: results grew the end-state fields (memory digest, completion,
// invariant-check outcome) and transport counters; cached v3 results
// lack them and must be recomputed.
// v5: span digest v2 — a word-wise fold over a packed record that now
// covers Span.Cause (DESIGN.md §11). Every span_digest changed while the
// simulation did not, so a v4 result must never be served beside a v5 one.
// v6: results grew the application's answer vector; cached v5 results
// lack it and must be recomputed.
// v7: metrics digest v2 — a fold of every sample as it is taken
// ("<samples>-<hash>") instead of the SHA-256 of a JSONL export. Every
// metrics_digest changed while the simulation did not, so a v6 result
// must never be served beside a v7 one.
const fingerprintVersion = "lazyrc-job-v7"

// Job is one simulation to run: an application at a scale, a protocol,
// and a fully materialized machine configuration. Two jobs with the same
// fingerprint produce the same Result bit for bit.
type Job struct {
	App   string        `json:"app"`
	Scale apps.Scale    `json:"scale"`
	Proto string        `json:"proto"`
	Cfg   config.Config `json:"cfg"`

	fp string // the fingerprint a keyed job carries (Keyed); empty otherwise
}

// Keyed returns the job carrying its fingerprint, computed once here:
// Fingerprint — and so a Runner executing the job, and the result it
// records — reads it instead of hashing the configuration again. A keyed
// job is passed along, never edited; derive variants from an unkeyed one.
func (j Job) Keyed() Job {
	j.fp = j.Fingerprint()
	return j
}

// Fingerprint returns the job's content hash: a hex SHA-256 over a
// canonical encoding of every field that determines the run's outcome
// (application, scale, protocol, and the entire configuration, including
// Seed and the fault-injection plan). Adding a config field changes the
// encoding and therefore retires all previously cached results — the
// conservative direction for a result cache.
func (j Job) Fingerprint() string {
	if j.fp != "" {
		return j.fp
	}
	cfg, err := json.Marshal(j.Cfg)
	if err != nil {
		// config.Config is a plain struct of scalars; Marshal cannot fail.
		panic("runner: encoding config: " + err.Error())
	}
	scale := j.Scale.String()
	enc := make([]byte, 0, len(fingerprintVersion)+len(j.App)+len(scale)+len(j.Proto)+len(cfg)+4)
	for _, field := range [...]string{fingerprintVersion, j.App, scale, j.Proto} {
		enc = append(append(enc, field...), 0)
	}
	sum := sha256.Sum256(append(enc, cfg...))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}
