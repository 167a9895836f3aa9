package schema

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// MediatedAttr is one attribute of the mediated (global) schema: a
// cluster of corresponding source attributes with a membership
// probability per member — the probabilistic mediated schema of the
// dataspace line of work the tutorial surveys.
type MediatedAttr struct {
	// Name is the cluster's display name: the most common member
	// attribute name.
	Name string
	// Members maps source attributes to membership probability (0,1].
	Members map[SourceAttr]float64
}

// MediatedSchema is the full set of mediated attributes plus the
// mapping from every source attribute to its cluster.
type MediatedSchema struct {
	Attrs []*MediatedAttr
	// Of maps each source attribute to the index in Attrs.
	Of map[SourceAttr]int
}

// Mapping returns the probabilistic mapping for one source: local
// attribute name → (mediated attribute name, probability).
func (ms *MediatedSchema) Mapping(source string) map[string]AttrMapping {
	out := map[string]AttrMapping{}
	for sa, idx := range ms.Of {
		if sa.Source != source {
			continue
		}
		ma := ms.Attrs[idx]
		out[sa.Attr] = AttrMapping{Mediated: ma.Name, P: ma.Members[sa]}
	}
	return out
}

// AttrMapping is one probabilistic source→mediated correspondence.
type AttrMapping struct {
	Mediated string
	P        float64
}

// Aligner clusters source-attribute profiles into a mediated schema by
// greedy agglomerative clustering under a match-evidence function.
type Aligner struct {
	// Evidence scores profile pairs; default Combined.
	Evidence MatchEvidence
	// Threshold: minimum evidence to merge two clusters (average
	// linkage). Default 0.5.
	Threshold float64
	// Ctx cancels the alignment between matrix rows and agglomeration
	// rounds; nil never cancels.
	Ctx context.Context
}

// Align builds the mediated schema from profiles.
func (al Aligner) Align(profiles []*Profile) (*MediatedSchema, error) {
	if err := validateProfiles(profiles); err != nil {
		return nil, err
	}
	ctx := al.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	evidence := al.Evidence
	if evidence == nil {
		evidence = Combined
	}
	threshold := al.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}

	sim, err := evidenceMatrix(ctx, profiles, evidence)
	if err != nil {
		return nil, err
	}
	groups, err := agglomerate(ctx, profiles, sim, threshold)
	if err != nil {
		return nil, err
	}
	return newMediatedSchema(profiles, sim, groups), nil
}

// evidenceMatrix scores every profile pair once into a symmetric matrix.
func evidenceMatrix(ctx context.Context, profiles []*Profile, evidence MatchEvidence) ([][]float64, error) {
	n := len(profiles)
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		// The evidence matrix and the agglomeration dominate alignment
		// wall time, so the row and the round are the cancellation
		// granularity for this stage.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			s := evidence(profiles[i], profiles[j])
			sim[i][j], sim[j][i] = s, s
		}
	}
	return sim, nil
}

// agglomerate runs greedy average-linkage clustering over the evidence
// matrix: each round merges the active cluster pair of highest average
// linkage at or above the threshold, the last such pair in row-major
// order on ties, and a cluster pair with two members of one source
// never merges. It returns the final clusters in index order, each
// listing its members in merge order.
func agglomerate(ctx context.Context, profiles []*Profile, sim [][]float64, threshold float64) ([][]int, error) {
	n := len(profiles)
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	src := make([]int, n) // interned sources
	srcIDs := map[string]int{}
	for i, p := range profiles {
		id, ok := srcIDs[p.Source]
		if !ok {
			id = len(srcIDs)
			srcIDs[p.Source] = id
		}
		src[i] = id
	}
	avgLink := func(a, b []int) float64 {
		var sum float64
		cnt := 0
		for _, i := range a {
			for _, j := range b {
				// Attributes of the same source must not merge.
				if src[i] == src[j] {
					return -1
				}
				sum += sim[i][j]
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	// link caches avgLink(clusters[i], clusters[j]) for every active
	// pair i < j, as one flat upper triangle. A merge changes only the
	// merged cluster, so only its scores are recomputed, by the same
	// avgLink over the same member order: every cached score equals a
	// fresh one bit for bit, and so do the chosen merges.
	row := func(i int) int { return i * (2*n - i - 1) / 2 } // offset of (i, i+1)
	link := make([]float64, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			link[row(i)+j-i-1] = avgLink(clusters[i], clusters[j])
		}
	}
	active := make([]int, n) // active cluster indices, ascending
	for i := range active {
		active[i] = i
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestI, bestJ, bestS := -1, -1, threshold
		for ai, i := range active {
			r := row(i) - i - 1
			for _, j := range active[ai+1:] {
				if s := link[r+j]; s >= bestS {
					bestI, bestJ, bestS = i, j, s
				}
			}
		}
		if bestI < 0 {
			break
		}
		clusters[bestI] = append(clusters[bestI], clusters[bestJ]...)
		for k, c := range active {
			if c == bestJ {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
		for _, k := range active {
			switch {
			case k < bestI:
				link[row(k)+bestI-k-1] = avgLink(clusters[k], clusters[bestI])
			case k > bestI:
				link[row(bestI)+k-bestI-1] = avgLink(clusters[bestI], clusters[k])
			}
		}
	}
	groups := make([][]int, len(active))
	for gi, ci := range active {
		groups[gi] = clusters[ci]
	}
	return groups, nil
}

// newMediatedSchema turns attribute clusters into the mediated schema:
// membership probabilities from the evidence matrix, cluster names and
// a deterministic attribute order.
func newMediatedSchema(profiles []*Profile, sim [][]float64, groups [][]int) *MediatedSchema {
	ms := &MediatedSchema{Of: map[SourceAttr]int{}}
	for _, members := range groups {
		ma := &MediatedAttr{Members: map[SourceAttr]float64{}}
		// Membership probability: each member's mean evidence toward the
		// rest of the cluster (1 for singletons).
		for _, i := range members {
			p := 1.0
			if len(members) > 1 {
				var sum float64
				for _, j := range members {
					if i != j {
						sum += sim[i][j]
					}
				}
				p = sum / float64(len(members)-1)
				if p > 1 {
					p = 1
				}
				if p <= 0 {
					p = 0.01
				}
			}
			ma.Members[profiles[i].SourceAttr] = p
		}
		ma.Name = clusterName(profiles, members)
		ms.Attrs = append(ms.Attrs, ma)
	}
	// Deterministic attr order: by name then first member.
	sort.Slice(ms.Attrs, func(i, j int) bool {
		if ms.Attrs[i].Name != ms.Attrs[j].Name {
			return ms.Attrs[i].Name < ms.Attrs[j].Name
		}
		return firstMember(ms.Attrs[i]).String() < firstMember(ms.Attrs[j]).String()
	})
	for idx, ma := range ms.Attrs {
		for sa := range ma.Members {
			ms.Of[sa] = idx
		}
	}
	return ms
}

func firstMember(ma *MediatedAttr) SourceAttr {
	var keys []string
	back := map[string]SourceAttr{}
	for sa := range ma.Members {
		k := sa.String()
		keys = append(keys, k)
		back[k] = sa
	}
	sort.Strings(keys)
	return back[keys[0]]
}

// clusterName picks the most frequent attribute name among members,
// ties broken lexicographically.
func clusterName(profiles []*Profile, members []int) string {
	freq := map[string]int{}
	for _, i := range members {
		freq[profiles[i].Attr]++
	}
	names := make([]string, 0, len(freq))
	for nm := range freq {
		names = append(names, nm)
	}
	sort.Slice(names, func(i, j int) bool {
		if freq[names[i]] != freq[names[j]] {
			return freq[names[i]] > freq[names[j]]
		}
		return names[i] < names[j]
	})
	return names[0]
}

// String renders the mediated schema for inspection.
func (ms *MediatedSchema) String() string {
	var b strings.Builder
	for i, ma := range ms.Attrs {
		fmt.Fprintf(&b, "[%d] %s:", i, ma.Name)
		var keys []string
		for sa := range ma.Members {
			keys = append(keys, sa.String())
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s", k)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
