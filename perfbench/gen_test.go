package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"jsrevealer/internal/rules"
)

func TestScriptsAreDeterministicPerSeed(t *testing.T) {
	a, b := genScripts(7, 300), genScripts(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different scripts")
	}
	if reflect.DeepEqual(a, genScripts(8, 300)) {
		t.Fatal("different seeds generated the same scripts")
	}
	seen := map[string]bool{}
	for _, s := range a {
		if seen[s.Source] {
			t.Fatalf("duplicate content in %s", s.Name)
		}
		if len(s.Source) > maxScriptBytes {
			t.Fatalf("%s is %d bytes", s.Name, len(s.Source))
		}
		seen[s.Source] = true
	}
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s share %.3f, want %.2f±%.3f", what, got, want, tol)
	}
}

// TestMixShares pins the generated population to the mix the workloads
// are documented with, on the bulk-cold size and two seeds.
func TestMixShares(t *testing.T) {
	for _, seed := range []int64{1, 9001} {
		scripts := genScripts(seed, bulkScripts)
		var mal, obf, ioc float64
		for _, s := range scripts {
			if s.Malicious && !s.IOC {
				mal++
			}
			if s.Obfuscator != "" {
				obf++
			}
			if s.IOC {
				ioc++
			}
		}
		n := float64(len(scripts))
		// IOC scripts are relabelled malicious; the generator's own split
		// holds on the rest.
		within(t, "malicious", mal/(n-ioc), maliciousShare, 0.01)
		within(t, "obfuscated", obf/n, obfuscatedShare, 0.01)
		within(t, "ioc", ioc/n, iocShare, 0.002)
	}
}

// TestDenyListConvictsExactlyTheIOCScripts checks the benchmark's rule set
// against its generator: every planted IOC is denied on the raw bytes and
// nothing else is.
func TestDenyListConvictsExactlyTheIOCScripts(t *testing.T) {
	set, err := rules.Load("rules")
	if err != nil {
		t.Fatal(err)
	}
	if err := rules.ShadowValidate(set); err != nil {
		t.Fatal(err)
	}
	for _, s := range genScripts(3, 600) {
		denied := set.EvalText(context.Background(), s.Source).Action == rules.ActionMalicious
		if denied != s.IOC {
			t.Errorf("%s: denied=%v, ioc=%v", s.Name, denied, s.IOC)
		}
	}
}

func TestQuantileAndF1(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("p25 %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
	var c confusion
	c.add(true, true)
	c.add(true, false)
	c.add(false, true)
	c.add(false, false)
	if got := c.f1(); got != 0.5 {
		t.Errorf("f1 %v", got)
	}
}
