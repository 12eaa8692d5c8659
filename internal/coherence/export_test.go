package coherence

// TouchChunksLike allocates in m every lazily allocated directory and
// node bitset chunk that ref holds, each entry left in its zero state,
// so replaying ref's access stream into m allocates nothing. m and ref
// must have the same configuration and node count.
func TouchChunksLike(m, ref *Machine) {
	m.dir.touchLike(&ref.dir)
	for i, rn := range ref.Nodes {
		switch rn := rn.(type) {
		case *IntegratedNode:
			n := m.Nodes[i].(*IntegratedNode)
			n.poisoned.touchLike(&rn.poisoned)
			n.frames.touchLike(&rn.frames)
			n.fetched.touchLike(&rn.fetched)
		case *ReferenceNode:
			m.Nodes[i].(*ReferenceNode).slc.touchLike(&rn.slc)
		}
	}
}

func (t *dirTable) touchLike(ref *dirTable) {
	for ci, c := range ref.chunks {
		if c != nil {
			t.entry(uint64(ci) << dirChunkShift)
		}
	}
}

func (b *pagedBits) touchLike(ref *pagedBits) {
	for ci, c := range ref.chunks {
		if c != nil {
			i := uint64(ci) << bitsChunkShift
			b.set(i)
			b.clear(i)
		}
	}
}
