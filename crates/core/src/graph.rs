//! Dependency analysis of combinational components.
//!
//! ALUs and selectors are evaluated in dependency order each cycle ("the
//! components are sorted in a dependency order" — §4.3). Memories are not
//! sorted: their outputs come from the previous cycle's latch. The original
//! used an `O(n³)` bubble pass; we use Kahn's algorithm with a deterministic
//! min-index tie-break, and Tarjan's SCC algorithm to *diagnose* circular
//! dependencies precisely instead of naming an arbitrary pair.

use crate::error::ElabError;
use crate::resolve::CompId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Topologically sorts the combinational components.
///
/// * `deps[i]` lists, for node `i`, the node indices it depends on (reads
///   from). Indices are positions in `nodes`.
/// * `nodes[i]` is the [`CompId`] of node `i`.
/// * `name(i)` names node `i` in the circular-dependency diagnostic; it is
///   called only on that error path, so a successful sort builds no names.
///
/// Returns component ids in evaluation order (dependencies first). Ties are
/// broken toward lower indices, so the order is stable across runs.
///
/// # Errors
///
/// [`ElabError::CircularDependency`] listing every component that sits on a
/// combinational cycle.
pub fn sort_combinational(
    nodes: &[CompId],
    deps: &[Vec<usize>],
    name: impl Fn(usize) -> String,
) -> Result<Vec<CompId>, ElabError> {
    debug_assert_eq!(nodes.len(), deps.len());
    let n = nodes.len();

    // Forward edges: dep -> dependent.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut in_degree = vec![0usize; n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            out_edges[d].push(i);
            in_degree[i] += 1;
        }
    }

    let mut ready: BinaryHeap<Reverse<usize>> = in_degree
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(i, _)| Reverse(i))
        .collect();

    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while let Some(Reverse(i)) = ready.pop() {
        placed[i] = true;
        order.push(nodes[i]);
        for &j in &out_edges[i] {
            in_degree[j] -= 1;
            if in_degree[j] == 0 {
                ready.push(Reverse(j));
            }
        }
    }

    if order.len() == n {
        return Ok(order);
    }

    // Some nodes never became ready: diagnose the actual cycles.
    let leftover: Vec<usize> = (0..n).filter(|&i| !placed[i]).collect();
    let mut members = cyclic_members(&leftover, deps);
    members.sort_unstable();
    let member_names = members.into_iter().map(name).collect();
    Err(ElabError::CircularDependency {
        members: member_names,
    })
}

/// Finds every node that belongs to a strongly connected component of size
/// greater than one, or that has a self-edge (Tarjan, iterative).
fn cyclic_members(nodes: &[usize], deps: &[Vec<usize>]) -> Vec<usize> {
    let n = deps.len();
    let in_scope: Vec<bool> = {
        let mut v = vec![false; n];
        for &i in nodes {
            v[i] = true;
        }
        v
    };

    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut result = Vec::new();

    // Iterative Tarjan with an explicit work stack of (node, child cursor).
    for &start in nodes {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if *cursor == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            // Deps within the leftover subgraph are the edges.
            let children: Vec<usize> = deps[v].iter().copied().filter(|&c| in_scope[c]).collect();
            if *cursor < children.len() {
                let c = children[*cursor];
                *cursor += 1;
                if index[c] == usize::MAX {
                    work.push((c, 0));
                } else if on_stack[c] {
                    low[v] = low[v].min(index[c]);
                }
            } else {
                // v is finished: close its SCC if it is a root.
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = scc.len() == 1 && deps[v].contains(&v);
                    if scc.len() > 1 || self_loop {
                        result.extend(scc);
                    }
                }
                let finished = work.pop().expect("work stack underflow").0;
                if let Some(&mut (p, _)) = work.last_mut() {
                    low[p] = low[p].min(low[finished]);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<CompId> {
        (0..n).map(CompId::new).collect()
    }

    fn name(i: usize) -> String {
        format!("c{i}")
    }

    fn indices(order: &[CompId]) -> Vec<usize> {
        order.iter().map(|c| c.index()).collect()
    }

    #[test]
    fn already_ordered_stays_ordered() {
        let deps = vec![vec![], vec![0], vec![1]];
        let order = sort_combinational(&ids(3), &deps, name).unwrap();
        assert_eq!(indices(&order), [0, 1, 2]);
    }

    #[test]
    fn reversed_chain_is_fixed() {
        // 0 depends on 1 depends on 2.
        let deps = vec![vec![1], vec![2], vec![]];
        let order = sort_combinational(&ids(3), &deps, name).unwrap();
        assert_eq!(indices(&order), [2, 1, 0]);
    }

    #[test]
    fn independent_nodes_keep_declaration_order() {
        let deps = vec![vec![], vec![], vec![]];
        let order = sort_combinational(&ids(3), &deps, name).unwrap();
        assert_eq!(indices(&order), [0, 1, 2]);
    }

    #[test]
    fn diamond() {
        // 3 depends on 1 and 2; both depend on 0.
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let order = sort_combinational(&ids(4), &deps, name).unwrap();
        assert_eq!(indices(&order), [0, 1, 2, 3]);
    }

    #[test]
    fn two_cycle_is_diagnosed() {
        let deps = vec![vec![1], vec![0], vec![]];
        let err = sort_combinational(&ids(3), &deps, name).unwrap_err();
        match err {
            ElabError::CircularDependency { members } => {
                assert_eq!(members, ["c0", "c1"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn self_loop_is_diagnosed() {
        let deps = vec![vec![0]];
        let err = sort_combinational(&ids(1), &deps, name).unwrap_err();
        match err {
            ElabError::CircularDependency { members } => assert_eq!(members, ["c0"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn downstream_of_cycle_is_not_blamed() {
        // 0 <-> 1 cycle; 2 depends on 1 but is not part of the cycle.
        let deps = vec![vec![1], vec![0], vec![1]];
        let err = sort_combinational(&ids(3), &deps, name).unwrap_err();
        match err {
            ElabError::CircularDependency { members } => {
                assert_eq!(members, ["c0", "c1"], "c2 merely depends on the cycle");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn two_disjoint_cycles_both_reported() {
        let deps = vec![vec![1], vec![0], vec![3], vec![2]];
        let err = sort_combinational(&ids(4), &deps, name).unwrap_err();
        match err {
            ElabError::CircularDependency { members } => {
                assert_eq!(members, ["c0", "c1", "c2", "c3"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_graph() {
        let order = sort_combinational(&[], &[], name).unwrap();
        assert!(order.is_empty());
    }

    #[test]
    fn duplicate_dep_edges_are_tolerated() {
        let deps = vec![vec![], vec![0, 0, 0]];
        let order = sort_combinational(&ids(2), &deps, name).unwrap();
        assert_eq!(indices(&order), [0, 1]);
    }
}
