// Package textstat implements the text-statistics primitives the study uses
// to compare privacy policies and HTML <head> contents: tokenization,
// TF-IDF weighting over a corpus, and cosine similarity between documents.
//
// The paper applies TF-IDF similarity twice: to cluster pornographic
// websites that likely share an owner (Section 4.1) and to measure how
// template-like privacy policies are (Section 7.3, where 76% of the
// 1.2M policy pairs scored above 0.5).
package textstat

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Tokenize splits text into lower-case word tokens. Tokens are maximal runs
// of letters and digits; everything else is a separator. Tokens shorter than
// two runes are discarded (they carry no signal in policy text).
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() >= 2 {
			tokens = append(tokens, b.String())
		}
		b.Reset()
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// Vector is a sparse term-weight vector.
type Vector map[string]float64

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var sum float64
	for _, w := range v {
		sum += w * w
	}
	return math.Sqrt(sum)
}

// Cosine returns the cosine similarity between two vectors in [0,1] for
// non-negative weights (TF-IDF weights are non-negative). Two empty vectors
// are defined to have similarity 0.
func Cosine(a, b Vector) float64 {
	return cosine(a, b, a.Norm(), b.Norm())
}

// cosine is Cosine with the norms na = a.Norm() and nb = b.Norm() given.
func cosine(a, b Vector, na, nb float64) float64 {
	if len(a) == 0 || len(b) == 0 || na == 0 || nb == 0 {
		return 0
	}
	// Iterate over the smaller vector.
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot float64
	for term, wa := range a {
		if wb, ok := b[term]; ok {
			dot += wa * wb
		}
	}
	sim := dot / (na * nb)
	// Clamp tiny floating-point excursions.
	if sim > 1 {
		sim = 1
	}
	if sim < 0 {
		sim = 0
	}
	return sim
}

// Corpus holds the documents being compared and the fitted IDF weights.
type Corpus struct {
	docs    [][]string         // tokenized documents
	idf     map[string]float64 // fitted inverse document frequency
	vectors []Vector           // cached TF-IDF vectors
	norms   []float64          // norms[i] = vectors[i].Norm()
}

// NewCorpus tokenizes the documents and fits IDF weights:
// idf(t) = ln((1+N)/(1+df(t))) + 1 (the smoothed variant, always positive).
func NewCorpus(documents []string) *Corpus {
	c := &Corpus{
		docs: make([][]string, len(documents)),
		idf:  make(map[string]float64),
	}
	df := make(map[string]int)
	for i, d := range documents {
		toks := Tokenize(d)
		c.docs[i] = toks
		seen := make(map[string]bool, len(toks))
		for _, t := range toks {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	n := float64(len(documents))
	for t, d := range df {
		c.idf[t] = math.Log((1+n)/(1+float64(d))) + 1
	}
	c.vectors = make([]Vector, len(documents))
	c.norms = make([]float64, len(documents))
	for i := range c.docs {
		c.vectors[i] = c.vectorize(c.docs[i])
		c.norms[i] = c.vectors[i].Norm()
	}
	return c
}

// Len returns the number of documents in the corpus.
func (c *Corpus) Len() int { return len(c.docs) }

// vectorize builds the L2-normalizable TF-IDF vector for a token list using
// the fitted IDF table. Unknown terms get IDF 1 (smoothing floor).
func (c *Corpus) vectorize(tokens []string) Vector {
	if len(tokens) == 0 {
		return Vector{}
	}
	tf := make(map[string]int, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	v := make(Vector, len(tf))
	n := float64(len(tokens))
	for t, f := range tf {
		idf, ok := c.idf[t]
		if !ok {
			idf = 1
		}
		v[t] = (float64(f) / n) * idf
	}
	return v
}

// Vector returns the TF-IDF vector of document i.
func (c *Corpus) Vector(i int) Vector { return c.vectors[i] }

// VectorFor builds a TF-IDF vector for text outside the corpus, using the
// corpus' fitted IDF weights.
func (c *Corpus) VectorFor(text string) Vector {
	return c.vectorize(Tokenize(text))
}

// Similarity returns the cosine similarity between corpus documents i and j.
func (c *Corpus) Similarity(i, j int) float64 {
	return cosine(c.vectors[i], c.vectors[j], c.norms[i], c.norms[j])
}

// PairStats summarizes all-pairs similarity over the corpus.
type PairStats struct {
	Pairs          int     // number of distinct pairs (i<j)
	AboveThreshold int     // pairs with similarity above the threshold
	Mean           float64 // mean pairwise similarity
	Max            float64
}

// AllPairs computes similarity statistics across every document pair,
// counting those above threshold. This mirrors the paper's 1,202,312-pair
// policy comparison where 76% scored above 0.5.
func (c *Corpus) AllPairs(threshold float64) PairStats {
	var st PairStats
	var sum float64
	for i := 0; i < len(c.vectors); i++ {
		for j := i + 1; j < len(c.vectors); j++ {
			s := c.Similarity(i, j)
			st.Pairs++
			sum += s
			if s > threshold {
				st.AboveThreshold++
			}
			if s > st.Max {
				st.Max = s
			}
		}
	}
	if st.Pairs > 0 {
		st.Mean = sum / float64(st.Pairs)
	}
	return st
}

// Cluster groups documents whose pairwise similarity exceeds threshold,
// using single-linkage via union-find. It returns clusters of size >= 2,
// each a sorted list of document indices, ordered by their smallest index.
// This is the owner-discovery clustering of Section 4.1.
func (c *Corpus) Cluster(threshold float64) [][]int {
	n := len(c.vectors)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c.Similarity(i, j) > threshold {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var clusters [][]int
	for _, g := range groups {
		if len(g) >= 2 {
			sort.Ints(g)
			clusters = append(clusters, g)
		}
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	return clusters
}
