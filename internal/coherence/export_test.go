package coherence

// TouchChunksLike allocates in m every lazily allocated directory page,
// node bitset page and INC tag page that ref holds, each entry left in
// its zero state, so replaying ref's access stream into m allocates
// nothing. m and ref must have the same configuration and node count.
func TouchChunksLike(m, ref *Machine) {
	m.dir.touchLike(&ref.dir)
	for i, rn := range ref.Nodes {
		switch rn := rn.(type) {
		case *IntegratedNode:
			n := m.Nodes[i].(*IntegratedNode)
			n.poisoned.touchLike(&rn.poisoned.paged)
			n.frames.touchLike(&rn.frames.paged)
			n.fetched.touchLike(&rn.fetched.paged)
			if rn.inc != nil {
				for p, tags := range rn.inc.pages {
					if tags != nil {
						n.inc.pages[p] = make([]uint64, len(tags))
					}
				}
			}
		case *ReferenceNode:
			m.Nodes[i].(*ReferenceNode).slc.touchLike(&rn.slc.paged)
		}
	}
}

func (p *paged[T]) touchLike(ref *paged[T]) {
	for m, mid := range ref.mids {
		if mid == nil {
			continue
		}
		for j, pg := range mid {
			if pg != nil {
				p.at(uint64(m)<<(pageShift+midShift) | uint64(j)<<pageShift)
			}
		}
	}
}
