package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// transcript is a fixed `go test -bench` output: two runs of each
// pipeline benchmark (means 3.0e9 and 4.2e9, mins 2.0e9 and 2.4e9) and
// one lint pass.
const transcript = `goos: linux
goarch: amd64
pkg: pornweb
cpu: Test CPU @ 1.00GHz
BenchmarkStudyRunScheduled-8        	       1	4000000000 ns/op	389592888 B/op	 3670945 allocs/op
BenchmarkStudyRunStageWorkers1-8    	       1	6000000000 ns/op	389592888 B/op	 3670945 allocs/op
BenchmarkStudyRunScheduled-8        	       1	2000000000 ns/op	389592888 B/op	 3670945 allocs/op
BenchmarkStudyRunStageWorkers1-8    	       1	2400000000 ns/op	389592888 B/op	 3670945 allocs/op
BenchmarkLintModule-8               	       1	3000000000 ns/op
BenchmarkLintAnalyzer/detflow-8     	       1	  90000000 ns/op
PASS
ok  	pornweb	20.000s
`

func runBenchjson(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, strings.NewReader(transcript), &out, &errOut)
	return code, out.String(), errOut.String()
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRatioMeanAndMin(t *testing.T) {
	code, stdout, stderr := runBenchjson(t, "-ratio", "sw1_over_scheduled=StudyRunStageWorkers1/StudyRunScheduled")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var got output
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("decode %q: %v", stdout, err)
	}
	if got.Goos != "linux" || got.Goarch != "amd64" || got.CPU != "Test CPU @ 1.00GHz" {
		t.Errorf("host header = %q/%q/%q", got.Goos, got.Goarch, got.CPU)
	}
	if b := got.Benchmarks["StudyRunScheduled"]; b.Runs != 2 || !near(b.NsPerOp, 3e9) || !near(b.MinNsPerOp, 2e9) {
		t.Errorf("StudyRunScheduled = %+v, want mean 3e9, min 2e9, 2 runs", b)
	}
	r, ok := got.Ratios["sw1_over_scheduled"]
	if !ok || !near(r.Mean, 1.4) || !near(r.Min, 1.2) {
		t.Errorf("ratio = %+v (present %v), want mean 1.4 (4.2e9/3e9), min 1.2 (2.4e9/2e9)", r, ok)
	}
	if !near(got.LintFullModuleSeconds, 3) || !near(got.LintAnalyzerSeconds["detflow"], 0.09) {
		t.Errorf("lint seconds = %v / %v, want 3 / 0.09", got.LintFullModuleSeconds, got.LintAnalyzerSeconds)
	}
}

func TestRatioUnknownOperand(t *testing.T) {
	code, stdout, stderr := runBenchjson(t, "-ratio", "x=StudyRunMissing/StudyRunScheduled")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "StudyRunMissing") {
		t.Errorf("stderr %q does not name the missing operand", stderr)
	}
	if stdout != "" {
		t.Errorf("wrote JSON despite the missing operand: %q", stdout)
	}
}

func TestMalformedRatioFlag(t *testing.T) {
	if code, _, _ := runBenchjson(t, "-ratio", "x=StudyRunScheduled"); code != 2 {
		t.Fatalf("exit %d, want 2 for a ratio without DEN", code)
	}
}

func TestAssertMaxPass(t *testing.T) {
	code, stdout, stderr := runBenchjson(t,
		"-assert-max", "lint_full_module_seconds=9.84",
		"-ratio", "sw1=StudyRunStageWorkers1/StudyRunScheduled",
		"-assert-max", "sw1/min=1.25")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if strings.Count(stderr, "within budget") != 2 || stdout == "" {
		t.Errorf("stderr %q, stdout %d bytes; want two passes and the JSON", stderr, len(stdout))
	}
}

func TestAssertMaxFail(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"over budget", "lint_full_module_seconds=2.5"},
		{"ratio over budget", "sw1/mean=1.3"},
		{"absent metric", "no_such_metric=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runBenchjson(t,
				"-ratio", "sw1=StudyRunStageWorkers1/StudyRunScheduled", "-assert-max", tc.args)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr %q", code, stderr)
			}
			if stdout == "" {
				t.Error("a failed assertion must still write the JSON")
			}
		})
	}
}
