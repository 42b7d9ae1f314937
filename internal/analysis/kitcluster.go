package analysis

import (
	"sort"
	"strings"

	"freephish/internal/htmlx"
)

// Kit-family clustering: pages generated from the same phishing kit share
// markup fingerprints (CSS class vocabularies, fixed resource includes)
// across unrelated domains. Clustering page signatures recovers kit
// families — the analysis behind kit-detection studies the paper builds on
// (§6) and a natural extension of FreePhish's self-hosted pipeline.

// PageSignature extracts a page's markup fingerprint: the set of CSS class
// tokens plus the static resource paths it includes. Per-page random
// attributes (ids, data blobs) are excluded by construction.
func PageSignature(html string) map[string]bool {
	return DocSignature(htmlx.Parse(html))
}

// DocSignature is PageSignature over an already parsed page, so a caller
// holding the crawler's parse does not parse the page again.
func DocSignature(doc *htmlx.Node) map[string]bool {
	sig := make(map[string]bool)
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode {
			return true
		}
		if cls, ok := n.Attr("class"); ok {
			for _, tok := range strings.Fields(cls) {
				sig["c:"+tok] = true
			}
		}
		switch n.Tag {
		case "link":
			if href, ok := n.Attr("href"); ok {
				sig["r:"+href] = true
			}
		case "script":
			if src, ok := n.Attr("src"); ok {
				sig["r:"+src] = true
			}
		}
		return true
	})
	return sig
}

// Jaccard returns |a∩b| / |a∪b|; two empty signatures count as identical.
func Jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ClusterSignatures groups page signatures into families with greedy
// leader clustering: each page joins the first existing cluster whose
// leader it matches at or above threshold, else founds a new cluster.
// Returned clusters are sorted by descending size; indices refer to the
// input order.
func ClusterSignatures(sigs []map[string]bool, threshold float64) [][]int {
	var leaders []int
	var clusters [][]int
	for i, sig := range sigs {
		placed := false
		for c, leader := range leaders {
			if Jaccard(sig, sigs[leader]) >= threshold {
				clusters[c] = append(clusters[c], i)
				placed = true
				break
			}
		}
		if !placed {
			leaders = append(leaders, i)
			clusters = append(clusters, []int{i})
		}
	}
	sort.SliceStable(clusters, func(a, b int) bool { return len(clusters[a]) > len(clusters[b]) })
	return clusters
}

// ClusterPurity scores a clustering against ground-truth labels: the
// fraction of pages whose cluster's majority label matches their own.
func ClusterPurity(clusters [][]int, labels []string) float64 {
	if len(labels) == 0 {
		return 0
	}
	correct := 0
	for _, cluster := range clusters {
		counts := map[string]int{}
		for _, i := range cluster {
			counts[labels[i]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(labels))
}

// KitFamily is one recovered markup family over the self-hosted cohort.
type KitFamily struct {
	Size      int
	TopBrands []string
	Example   string // one member URL
}

// KitFamilies clusters the self-hosted cohort's page signatures and
// returns families of at least minSize, largest first — the kit-market
// view of the study's self-hosted attacks.
func (s *Study) KitFamilies(threshold float64, minSize int) []KitFamily {
	var recs []*Record
	for _, r := range s.Select(SelfHostedCohort) {
		// Records without a captured signature (e.g. loaded from a stream
		// written by an older tool) cannot cluster meaningfully.
		if len(r.Signature) > 0 {
			recs = append(recs, r)
		}
	}
	sigs := make([]map[string]bool, len(recs))
	for i, r := range recs {
		sigs[i] = r.Signature
	}
	clusters := ClusterSignatures(sigs, threshold)
	var out []KitFamily
	for _, c := range clusters {
		if len(c) < minSize {
			continue
		}
		brandCount := map[string]int{}
		for _, i := range c {
			if b := recs[i].Target.Brand; b != "" {
				brandCount[b]++
			}
		}
		var brands []string
		for b := range brandCount {
			brands = append(brands, b)
		}
		sort.Slice(brands, func(i, j int) bool {
			if brandCount[brands[i]] != brandCount[brands[j]] {
				return brandCount[brands[i]] > brandCount[brands[j]]
			}
			return brands[i] < brands[j]
		})
		if len(brands) > 3 {
			brands = brands[:3]
		}
		out = append(out, KitFamily{Size: len(c), TopBrands: brands, Example: recs[c[0]].Target.URL})
	}
	return out
}
