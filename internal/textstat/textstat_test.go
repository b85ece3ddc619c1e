package textstat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! GDPR-compliant cookies 42 a")
	want := []string{"hello", "world", "gdpr", "compliant", "cookies", "42"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("política de privacidad — данные")
	want := []string{"política", "de", "privacidad", "данные"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestCosineIdentical(t *testing.T) {
	c := NewCorpus([]string{"the cookie policy text", "the cookie policy text"})
	if s := c.Similarity(0, 1); math.Abs(s-1) > 1e-9 {
		t.Errorf("identical docs similarity = %f, want 1", s)
	}
}

func TestCosineDisjoint(t *testing.T) {
	c := NewCorpus([]string{"alpha beta gamma", "delta epsilon zeta"})
	if s := c.Similarity(0, 1); s != 0 {
		t.Errorf("disjoint docs similarity = %f, want 0", s)
	}
}

func TestCosineEmpty(t *testing.T) {
	c := NewCorpus([]string{"", "words here"})
	if s := c.Similarity(0, 1); s != 0 {
		t.Errorf("empty doc similarity = %f, want 0", s)
	}
	if s := Cosine(Vector{}, Vector{}); s != 0 {
		t.Errorf("Cosine(empty,empty) = %f, want 0", s)
	}
}

func TestCosineRangeProperty(t *testing.T) {
	f := func(a, b string) bool {
		c := NewCorpus([]string{a, b})
		s := c.Similarity(0, 1)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosineSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		c := NewCorpus([]string{a, b})
		return math.Abs(Cosine(c.Vector(0), c.Vector(1))-Cosine(c.Vector(1), c.Vector(0))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarityOrdering(t *testing.T) {
	// A near-duplicate pair must score higher than an unrelated pair.
	docs := []string{
		"we collect cookies and share data with advertising partners for analytics",
		"we collect cookies and share data with advertising partners for marketing",
		"bananas are yellow fruit grown in tropical regions of the world",
	}
	c := NewCorpus(docs)
	near := c.Similarity(0, 1)
	far := c.Similarity(0, 2)
	if near <= far {
		t.Errorf("near-duplicate similarity %f should exceed unrelated %f", near, far)
	}
	if near < 0.5 {
		t.Errorf("near-duplicate similarity %f should be >= 0.5", near)
	}
}

func TestVectorFor(t *testing.T) {
	c := NewCorpus([]string{"cookies and trackers", "privacy policy"})
	v := c.VectorFor("cookies trackers unseen")
	if len(v) != 3 {
		t.Errorf("VectorFor returned %d terms, want 3", len(v))
	}
	if v["unseen"] <= 0 {
		t.Error("unknown term should get smoothing IDF > 0")
	}
}

func TestAllPairs(t *testing.T) {
	docs := []string{
		"template privacy policy cookies third parties",
		"template privacy policy cookies third parties",
		"template privacy policy cookies third parties gdpr",
		"completely different text about video streaming",
	}
	c := NewCorpus(docs)
	st := c.AllPairs(0.5)
	if st.Pairs != 6 {
		t.Fatalf("Pairs = %d, want 6", st.Pairs)
	}
	if st.AboveThreshold < 3 {
		t.Errorf("AboveThreshold = %d, want >= 3 (the three template pairs)", st.AboveThreshold)
	}
	if st.Max < 0.999 {
		t.Errorf("Max = %f, want ~1 for identical pair", st.Max)
	}
	if st.Mean <= 0 || st.Mean > 1 {
		t.Errorf("Mean = %f out of range", st.Mean)
	}
}

func TestCluster(t *testing.T) {
	docs := []string{
		"acme corp privacy policy we collect usage data and cookies",   // 0
		"acme corp privacy policy we collect usage data and cookies x", // 1: near 0
		"zebra streaming terms totally unrelated words entirely",       // 2
		"acme corp privacy policy we collect usage data and cookies y", // 3: near 0,1
	}
	c := NewCorpus(docs)
	clusters := c.Cluster(0.8)
	if len(clusters) != 1 {
		t.Fatalf("clusters = %v, want exactly 1", clusters)
	}
	got := clusters[0]
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("cluster = %v, want [0 1 3]", got)
	}
}

func TestClusterNone(t *testing.T) {
	c := NewCorpus([]string{"alpha beta", "gamma delta", "epsilon zeta"})
	if clusters := c.Cluster(0.5); len(clusters) != 0 {
		t.Errorf("clusters = %v, want none", clusters)
	}
}

func TestCorpusLen(t *testing.T) {
	if n := NewCorpus([]string{"a b", "c d", "e f"}).Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
}

// TestSimilarityMatchesCosine: the corpus's precomputed norms give the
// similarity Cosine computes from the vectors themselves.
func TestSimilarityMatchesCosine(t *testing.T) {
	c := NewCorpus([]string{
		"template privacy policy cookies third parties",
		"template privacy policy cookies third parties gdpr",
		"we share usage data with advertising partners",
		"",
		"cookies cookies cookies and more cookies",
	})
	for i := 0; i < c.Len(); i++ {
		for j := 0; j < c.Len(); j++ {
			got, want := c.Similarity(i, j), Cosine(c.Vector(i), c.Vector(j))
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("Similarity(%d, %d) = %v, Cosine = %v", i, j, got, want)
			}
		}
	}
}
