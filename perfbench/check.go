package main

import (
	"fmt"
	"sort"

	"pornweb/internal/core"
	"pornweb/internal/provenance"
)

// figures is every figure and table a complete Study.Run renders into
// its manifest, the paper's evaluation plus the study's extensions.
var figures = []string{
	"age_verification", "blocking", "chains", "cookie_census", "figure1",
	"figure3", "figure4", "malware", "monetization", "policies",
	"robustness", "rta", "storage", "table1", "table2", "table3",
	"table4", "table5", "table6", "table7", "table8", "validation",
}

// declaredStages lists every pipeline stage a study over the given
// vantage countries declares: corpus compilation, the crawls, and the
// analyses.
func declaredStages(countries []string) []string {
	stages := []string{
		"corpus", "crawl/porn-ES", "crawl/reference-ES", "crawl/porn-US", "crawl/interactive-ES",
		"analysis/rank-stability", "analysis/third-parties", "analysis/organizations",
		"analysis/cookies", "analysis/cookie-sync", "analysis/fingerprinting", "analysis/https",
		"analysis/malware", "analysis/monetization", "analysis/blocking", "analysis/rta",
		"analysis/chains", "analysis/storage", "analysis/banners", "analysis/policies",
		"analysis/owners", "analysis/validation", "analysis/age-verification",
		"analysis/geo", "analysis/robustness",
	}
	for _, c := range core.AgeVantages() {
		stages = append(stages, "crawl/age-"+c)
	}
	for _, c := range countries {
		if c != "ES" && c != "US" {
			stages = append(stages, "crawl/geo-"+c)
		}
	}
	sort.Strings(stages)
	return stages
}

// checkComplete reports every figure missing from m and every declared
// stage it did not record.
func checkComplete(m *provenance.Manifest, countries []string) []string {
	var probs []string
	for _, f := range figures {
		if _, ok := m.Figures[f]; !ok {
			probs = append(probs, "figure "+f+" missing")
		}
	}
	for _, s := range declaredStages(countries) {
		if _, ok := m.Stages[s]; !ok {
			probs = append(probs, "stage "+s+" not recorded")
		}
	}
	return probs
}

// compareOutputs reports every figure digest of got that differs from
// want's and, with stages set, every differing stage record count or
// digest. The config fingerprint and the store block are not compared:
// they name how a run was configured and persisted, not what it found.
func compareOutputs(got, want *provenance.Manifest, stages bool) []string {
	var probs []string
	for _, f := range sortedKeys(want.Figures) {
		if g, ok := got.Figures[f]; !ok || g.Digest != want.Figures[f].Digest {
			probs = append(probs, "figure "+f+" digest differs")
		}
	}
	if !stages {
		return probs
	}
	for _, s := range sortedKeys(want.Stages) {
		g, ok := got.Stages[s]
		w := want.Stages[s]
		if !ok || g.Digest != w.Digest || g.Records != w.Records {
			probs = append(probs, "stage "+s+" digest differs")
		}
	}
	return probs
}

// checkFailureSums reports every vantage row whose failures by class do
// not add up to the visits it lost, and a mismatch between the class
// totals and the lost visits over all rows.
func checkFailureSums(r core.RobustnessResult) []string {
	var probs []string
	lost := 0
	for _, row := range r.Rows {
		byClass := 0
		for _, n := range row.Failures {
			byClass += n
		}
		if byClass != row.Attempted-row.Crawled {
			probs = append(probs, fmt.Sprintf("vantage %s: failures by class %d != attempted-crawled %d",
				row.Country, byClass, row.Attempted-row.Crawled))
		}
		lost += row.Attempted - row.Crawled
	}
	total := 0
	for _, n := range r.VisitFailures {
		total += n
	}
	if total != lost {
		probs = append(probs, fmt.Sprintf("visit failures by class %d != attempted-crawled %d", total, lost))
	}
	return probs
}

// visitFailures sums lost and attempted vantage visits over the
// robustness rows: visit_fail_ratio is lost / attempted.
func visitFailures(rows []core.CrawlLossRow) (lost, attempted int) {
	for _, row := range rows {
		lost += row.Attempted - row.Crawled
		attempted += row.Attempted
	}
	return lost, attempted
}

// failRatio is visit_fail_ratio pooled over repetitions: every lost
// vantage visit over every attempted one.
func failRatio(reps []rep) float64 {
	lost, attempted := 0, 0
	for _, r := range reps {
		lost += r.Lost
		attempted += r.Attempted
	}
	return ratio(float64(lost), float64(attempted))
}

// manifestDigest digests a whole manifest, the identity two runs that
// found the same things share.
func manifestDigest(m *provenance.Manifest) string {
	d, err := provenance.HashJSON(m)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	return d
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
