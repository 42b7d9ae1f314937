package analysis

import "sort"

// Kit-family clustering: pages generated from the same phishing kit share
// markup fingerprints (CSS class vocabularies, fixed resource includes)
// across unrelated domains. Clustering page signatures recovers kit
// families — the analysis behind kit-detection studies the paper builds on
// (§6) and a natural extension of FreePhish's self-hosted pipeline.

// ClusterSignatures groups page signatures into families with greedy
// leader clustering: each page joins the first existing cluster whose
// leader it matches at or above threshold, else founds a new cluster.
// Returned clusters are sorted by descending size; indices refer to the
// input order.
func ClusterSignatures(sigs []Signature, threshold float64) [][]int {
	var clusters [][]int
	if threshold <= 0 {
		clusters = scanLeaders(sigs, threshold)
	} else {
		clusters = indexLeaders(sigs, threshold)
	}
	sort.SliceStable(clusters, func(a, b int) bool { return len(clusters[a]) > len(clusters[b]) })
	return clusters
}

// scanLeaders is greedy leader clustering by a plain scan: each page is
// scored against every leader in order. Clusters come out in the order
// their leaders were founded, each leader first.
func scanLeaders(sigs []Signature, threshold float64) [][]int {
	var clusters [][]int
next:
	for i, sig := range sigs {
		for c, cluster := range clusters {
			if Jaccard(sig, sigs[cluster[0]]) >= threshold {
				clusters[c] = append(cluster, i)
				continue next
			}
		}
		clusters = append(clusters, []int{i})
	}
	return clusters
}

// indexLeaders is scanLeaders for a threshold above 0, where a non-empty
// page scores 0 against every leader it shares no token with, and an
// empty page scores 1 against an empty leader and 0 against any other.
// An index from each token to the leaders holding it counts the page's
// shared tokens with exactly the leaders that can match; the
// lowest-numbered of them that scores at or above threshold is the one
// the plain scan would have found first.
func indexLeaders(sigs []Signature, threshold float64) [][]int {
	var clusters [][]int
	byToken := make(map[string][]int32) // token -> leaders holding it, ascending
	emptyLeader := -1
	var shared []int32  // per leader: tokens shared with the current page
	var touched []int32 // leaders whose shared count is nonzero
	for i, sig := range sigs {
		best := -1
		if len(sig) == 0 && emptyLeader >= 0 && 1 >= threshold {
			best = emptyLeader
		}
		for _, tok := range sig {
			for _, c := range byToken[tok] {
				if shared[c] == 0 {
					touched = append(touched, c)
				}
				shared[c]++
			}
		}
		for _, c := range touched {
			if (best < 0 || int(c) < best) &&
				jaccardOf(int(shared[c]), len(sig), len(sigs[clusters[c][0]])) >= threshold {
				best = int(c)
			}
			shared[c] = 0
		}
		touched = touched[:0]
		if best >= 0 {
			clusters[best] = append(clusters[best], i)
			continue
		}
		c := int32(len(clusters))
		clusters = append(clusters, []int{i})
		shared = append(shared, 0)
		if len(sig) == 0 && emptyLeader < 0 {
			emptyLeader = int(c)
		}
		for _, tok := range sig {
			byToken[tok] = append(byToken[tok], c)
		}
	}
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
	sigs := make([]Signature, len(recs))
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
