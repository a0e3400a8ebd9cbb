//! A sequential specification of the capability forest.
//!
//! [`Spec`] is the reference the distributed protocol is checked
//! against. Every capability operation of the paper is one atomic step
//! on one forest: create, derive, obtain, delegate, revoke of a single
//! root (the capability itself, or only its children), session open
//! and close, and VPE exit. There are no kernels, no messages and no
//! `Revoking` state: what the protocol spreads over several kernels and
//! phases happens here at once. Every system call the kernel serves is
//! one of these steps.
//!
//! A capability is named as a VPE names it, by holder and selector
//! ([`Name`]). The model allocates no selectors and no memory: a step
//! that creates a capability is told the selector (and, for memory, the
//! address) the system under test chose, and refuses a selector its own
//! state holds with [`Code::Exists`]. A step order that names
//! capabilities inconsistently is therefore refused like one whose
//! answers differ. Each step checks its arguments in the order the
//! kernel does, so its error codes are the kernel's.
//!
//! [`Spec::forest`] prints the model's forest; [`canonical`] turns the
//! kernels' state digests (`Kernel::state_digest`) into the same lines,
//! with every DDL key renamed to its capability's [`Name`]. Two forests
//! are equal modulo key naming exactly when the sorted lines are.

use std::collections::{BTreeMap, BTreeSet};

use semper_base::msg::{CapKindDesc, Perms};
use semper_base::{CapSel, Code, Error, Result, ServiceId, VpeId};

/// A capability's name: the VPE holding it and its selector there.
pub type Name = (VpeId, CapSel);

/// The selector of every VPE's own capability.
const VPE_SEL: CapSel = CapSel(0);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    kind: CapKindDesc,
    parent: Option<Name>,
    children: Vec<Name>,
}

/// The capability forest, one atomic step at a time (module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spec {
    caps: BTreeMap<Name, Node>,
    /// Every VPE ever added; `true` while it is alive.
    vpes: BTreeMap<VpeId, bool>,
}

impl Spec {
    /// An empty forest with no VPEs.
    pub fn new() -> Spec {
        Spec::default()
    }

    /// Adds a live VPE holding its own capability at selector 0.
    ///
    /// # Panics
    ///
    /// Panics if the VPE was added before.
    pub fn add_vpe(&mut self, vpe: VpeId) {
        assert!(self.vpes.insert(vpe, true).is_none(), "{vpe} added twice");
        self.bind((vpe, VPE_SEL), CapKindDesc::Vpe { vpe }, None);
    }

    /// `CreateMem`: a root memory capability at `sel` for the region
    /// the system under test allocated at `addr`.
    pub fn create_mem(
        &mut self,
        vpe: VpeId,
        sel: CapSel,
        addr: u64,
        size: u64,
        perms: Perms,
    ) -> Result<()> {
        self.caller(vpe)?;
        self.free((vpe, sel))?;
        self.bind((vpe, sel), CapKindDesc::Memory { addr, size, perms }, None);
        Ok(())
    }

    /// `DeriveMem`: a child of `vpe`'s memory capability at `src`
    /// covering `offset..offset + size` with at most its permissions.
    pub fn derive_mem(
        &mut self,
        vpe: VpeId,
        src: CapSel,
        sel: CapSel,
        offset: u64,
        size: u64,
        perms: Perms,
    ) -> Result<()> {
        self.caller(vpe)?;
        let parent = self.get((vpe, src))?;
        let CapKindDesc::Memory { addr, size: psize, perms: pperms } = parent.kind else {
            return Err(Error::new(Code::InvalidArgs));
        };
        let end = offset.checked_add(size).ok_or(Error::new(Code::InvalidArgs))?;
        if size == 0 || end > psize {
            return Err(Error::new(Code::InvalidArgs));
        }
        if !pperms.contains(perms) {
            return Err(Error::new(Code::NoPerm));
        }
        self.free((vpe, sel))?;
        let kind = CapKindDesc::Memory { addr: addr + offset, size, perms };
        self.bind((vpe, sel), kind, Some((vpe, src)));
        Ok(())
    }

    /// An obtain exchange: `by` receives, at `sel`, a child of `from`'s
    /// capability at `other_sel`.
    pub fn obtain(&mut self, by: VpeId, from: VpeId, other_sel: CapSel, sel: CapSel) -> Result<()> {
        self.caller(by)?;
        self.peer(by, from)?;
        let kind = self.get((from, other_sel))?.kind;
        self.free((by, sel))?;
        self.bind((by, sel), kind, Some((from, other_sel)));
        Ok(())
    }

    /// A delegate exchange: `to` receives, at `recv_sel`, a child of
    /// `from`'s capability at `own_sel`.
    pub fn delegate(
        &mut self,
        from: VpeId,
        to: VpeId,
        own_sel: CapSel,
        recv_sel: CapSel,
    ) -> Result<()> {
        self.caller(from)?;
        if from == to {
            return Err(Error::new(Code::InvalidArgs));
        }
        if !self.vpes.contains_key(&to) {
            return Err(Error::new(Code::NoSuchVpe));
        }
        let kind = self.get((from, own_sel))?.kind;
        self.peer(from, to)?;
        self.free((to, recv_sel))?;
        self.bind((to, recv_sel), kind, Some((from, own_sel)));
        Ok(())
    }

    /// `Revoke`: removes `vpe`'s capability at `sel` with its subtree
    /// (`own`), or only the subtrees of its children.
    pub fn revoke(&mut self, vpe: VpeId, sel: CapSel, own: bool) -> Result<()> {
        self.caller(vpe)?;
        let children = self.get((vpe, sel))?.children.clone();
        if own {
            self.remove_subtree((vpe, sel));
        } else {
            for child in children {
                self.remove_subtree(child);
            }
        }
        Ok(())
    }

    /// `CreateSrv`: a root service capability at `sel`.
    pub fn create_srv(&mut self, vpe: VpeId, sel: CapSel, id: ServiceId) -> Result<()> {
        self.caller(vpe)?;
        self.free((vpe, sel))?;
        self.bind((vpe, sel), CapKindDesc::Service { id }, None);
        Ok(())
    }

    /// `OpenSession`: `client` receives, at `sel`, a session capability
    /// with the service-chosen `ident`, a child of the service
    /// capability `service`.
    pub fn open_session(
        &mut self,
        client: VpeId,
        service: Name,
        sel: CapSel,
        ident: u64,
    ) -> Result<()> {
        self.caller(client)?;
        let Some(CapKindDesc::Service { id }) = self.caps.get(&service).map(|n| n.kind) else {
            return Err(Error::new(Code::NoSuchService));
        };
        if !self.alive(service.0) {
            return Err(Error::new(Code::NoSuchService));
        }
        self.free((client, sel))?;
        self.bind((client, sel), CapKindDesc::Session { service: id, ident }, Some(service));
        Ok(())
    }

    /// Closes the session `client` holds at `sel`: revokes it.
    pub fn close_session(&mut self, client: VpeId, sel: CapSel) -> Result<()> {
        self.caller(client)?;
        if !matches!(self.get((client, sel))?.kind, CapKindDesc::Session { .. }) {
            return Err(Error::new(Code::InvalidArgs));
        }
        self.revoke(client, sel, true)
    }

    /// VPE exit: the VPE dies and every capability it holds goes with
    /// its subtree. Exiting a dead VPE changes nothing.
    pub fn exit(&mut self, vpe: VpeId) {
        if !self.alive(vpe) {
            return;
        }
        self.vpes.insert(vpe, false);
        let held = self.caps.range((vpe, CapSel(0))..=(vpe, CapSel(u32::MAX)));
        let held: Vec<Name> = held.map(|(name, _)| *name).collect();
        for name in held {
            if self.caps.contains_key(&name) {
                self.remove_subtree(name);
            }
        }
    }

    /// The forest, one sorted line per capability: its name, resource,
    /// parent (`-` for a root) and sorted children.
    pub fn forest(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .caps
            .iter()
            .map(|(name, node)| {
                let mut children: Vec<String> = node.children.iter().map(|c| show(*c)).collect();
                children.sort_unstable();
                let parent = node.parent.map_or("-".to_string(), show);
                cap_line(&show(*name), &format!("{:?}", node.kind), &parent, &children)
            })
            .collect();
        lines.sort_unstable();
        lines
    }

    /// True if `vpe` was added and has not exited.
    fn alive(&self, vpe: VpeId) -> bool {
        self.vpes.get(&vpe).copied().unwrap_or(false)
    }

    fn caller(&self, vpe: VpeId) -> Result<()> {
        if self.alive(vpe) {
            Ok(())
        } else {
            Err(Error::new(Code::NoSuchVpe))
        }
    }

    /// The exchange peer `other` of `vpe`: another VPE, known and alive.
    fn peer(&self, vpe: VpeId, other: VpeId) -> Result<()> {
        match self.vpes.get(&other) {
            _ if other == vpe => Err(Error::new(Code::InvalidArgs)),
            None => Err(Error::new(Code::NoSuchVpe)),
            Some(false) => Err(Error::new(Code::VpeGone)),
            Some(true) => Ok(()),
        }
    }

    fn get(&self, name: Name) -> Result<&Node> {
        self.caps.get(&name).ok_or(Error::new(Code::NoSuchCap))
    }

    fn free(&self, name: Name) -> Result<()> {
        if self.caps.contains_key(&name) {
            Err(Error::new(Code::Exists))
        } else {
            Ok(())
        }
    }

    fn bind(&mut self, name: Name, kind: CapKindDesc, parent: Option<Name>) {
        if let Some(p) = parent {
            self.caps.get_mut(&p).expect("parent exists").children.push(name);
        }
        self.caps.insert(name, Node { kind, parent, children: Vec::new() });
    }

    fn remove_subtree(&mut self, root: Name) {
        let node = self.caps.remove(&root).expect("subtree root exists");
        if let Some(parent) = node.parent.and_then(|p| self.caps.get_mut(&p)) {
            parent.children.retain(|c| *c != root);
        }
        let mut stack = node.children;
        while let Some(name) = stack.pop() {
            let node = self.caps.remove(&name).expect("child exists");
            stack.extend(node.children);
        }
    }
}

fn show((vpe, sel): Name) -> String {
    format!("{vpe}/{sel}")
}

fn cap_line(name: &str, kind: &str, parent: &str, children: &[String]) -> String {
    format!("cap {name} kind={kind} parent={parent} children=[{}]", children.join(" "))
}

/// The kernels' state digests (`Kernel::state_digest`, concatenated
/// over all kernels) as [`Spec::forest`] lines: each DDL key renamed to
/// its record's [`Name`] (`?` for a parent or child no kernel holds a
/// record of, which no model forest has), children sorted. A table
/// binding whose key is not the record of that very selector is kept
/// as a line of its own, which no model forest has either.
pub fn canonical(digest: impl IntoIterator<Item = String>) -> Vec<String> {
    let digest: Vec<String> = digest.into_iter().collect();
    let mut names: BTreeMap<&str, String> = BTreeMap::new();
    let mut caps = Vec::new();
    let mut binds = Vec::new();
    for line in &digest {
        if let Some(rest) = line.strip_prefix("cap ") {
            let (key, rest) = rest.split_once(" kind=").expect("digest cap line");
            let (kind, rest) = rest.rsplit_once(" owner=").expect("digest cap line");
            let (owner, rest) = rest.split_once(" sel=").expect("digest cap line");
            let (sel, rest) = rest.split_once(" parent=").expect("digest cap line");
            let (parent, children) = rest.split_once(" children=").expect("digest cap line");
            names.insert(key, format!("{owner}/sel{}", inner(sel, "CapSel(")));
            caps.push((key, kind, parent, children));
        } else if let Some(rest) = line.strip_prefix("bind ") {
            let (holder, key) = rest.split_once(" -> ").expect("digest bind line");
            let (vpe, sel) = holder.split_once(' ').expect("digest bind line");
            binds.push((format!("{vpe}/sel{}", inner(sel, "CapSel(")), key));
        }
    }
    let rename = |key: &str| names.get(key).cloned().unwrap_or_else(|| "?".to_string());
    let mut lines: Vec<String> = caps
        .iter()
        .map(|(key, kind, parent, children)| {
            let parent = match *parent {
                "None" => "-".to_string(),
                some => rename(inner(some, "Some(")),
            };
            let list = inner(children, "[");
            let mut children: Vec<String> =
                list.split(", ").filter(|k| !k.is_empty()).map(rename).collect();
            children.sort_unstable();
            cap_line(&rename(key), kind, &parent, &children)
        })
        .collect();
    let bound: BTreeSet<String> = binds
        .into_iter()
        .filter(|(name, key)| rename(key) != *name)
        .map(|(name, key)| format!("bind {name} -> {}", rename(key)))
        .collect();
    lines.extend(bound);
    lines.sort_unstable();
    lines
}

/// `text` without the `open` prefix and its closing bracket.
fn inner<'a>(text: &'a str, open: &str) -> &'a str {
    let body = text.strip_prefix(open).expect("bracketed digest field");
    &body[..body.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u16) -> VpeId {
        VpeId(n)
    }

    fn holds(s: &Spec, name: Name) -> bool {
        s.caps.contains_key(&name)
    }

    fn world() -> Spec {
        let mut s = Spec::new();
        for n in 0..3 {
            s.add_vpe(v(n));
        }
        s
    }

    #[test]
    fn exchanges_build_a_tree_that_revoke_removes() {
        let mut s = world();
        s.create_mem(v(0), CapSel(2), 4096, 4096, Perms::RW).unwrap();
        s.delegate(v(0), v(1), CapSel(2), CapSel(2)).unwrap();
        s.obtain(v(2), v(1), CapSel(2), CapSel(2)).unwrap();
        s.derive_mem(v(2), CapSel(2), CapSel(3), 0, 64, Perms::R).unwrap();
        assert_eq!(s.caps.len(), 3 + 4);
        s.revoke(v(1), CapSel(2), false).unwrap();
        assert!(holds(&s, (v(1), CapSel(2))));
        assert!(!holds(&s, (v(2), CapSel(2))) && !holds(&s, (v(2), CapSel(3))));
        s.revoke(v(0), CapSel(2), true).unwrap();
        assert_eq!(s.caps.len(), 3);
        assert_eq!(s.revoke(v(0), CapSel(2), true), Err(Error::new(Code::NoSuchCap)));
    }

    #[test]
    fn steps_refuse_like_the_kernel() {
        let mut s = world();
        s.create_mem(v(0), CapSel(2), 4096, 4096, Perms::R).unwrap();
        let code = |r: Result<()>| r.unwrap_err().code();
        assert_eq!(code(s.create_mem(v(0), CapSel(2), 0, 1, Perms::R)), Code::Exists);
        assert_eq!(code(s.delegate(v(0), v(0), CapSel(2), CapSel(2))), Code::InvalidArgs);
        assert_eq!(code(s.delegate(v(0), v(1), CapSel(9), CapSel(2))), Code::NoSuchCap);
        assert_eq!(code(s.delegate(v(0), v(7), CapSel(2), CapSel(2))), Code::NoSuchVpe);
        assert_eq!(code(s.derive_mem(v(0), CapSel(2), CapSel(3), 0, 64, Perms::RW)), Code::NoPerm);
        assert_eq!(
            code(s.derive_mem(v(0), CapSel(2), CapSel(3), 4090, 64, Perms::R)),
            Code::InvalidArgs
        );
        assert_eq!(code(s.derive_mem(v(0), VPE_SEL, CapSel(3), 0, 1, Perms::R)), Code::InvalidArgs);
        s.exit(v(1));
        assert_eq!(code(s.obtain(v(0), v(1), VPE_SEL, CapSel(3))), Code::VpeGone);
        assert_eq!(code(s.create_mem(v(1), CapSel(2), 0, 1, Perms::R)), Code::NoSuchVpe);
    }

    #[test]
    fn exit_takes_every_subtree_the_vpe_roots() {
        let mut s = world();
        s.create_mem(v(0), CapSel(2), 0, 4096, Perms::RW).unwrap();
        s.delegate(v(0), v(1), CapSel(2), CapSel(5)).unwrap();
        s.create_mem(v(1), CapSel(2), 8192, 4096, Perms::RW).unwrap();
        s.exit(v(0));
        assert!(!s.alive(v(0)));
        assert!(!holds(&s, (v(1), CapSel(5))), "a delegated child dies with its parent");
        assert!(holds(&s, (v(1), CapSel(2))));
        assert_eq!(s.caps.len(), 3);
    }

    #[test]
    fn sessions_are_children_of_the_service_capability() {
        let mut s = world();
        s.create_srv(v(0), CapSel(2), ServiceId(4)).unwrap();
        s.open_session(v(1), (v(0), CapSel(2)), CapSel(2), 1).unwrap();
        let code = |r: Result<()>| r.unwrap_err().code();
        assert_eq!(
            code(s.open_session(v(2), (v(0), CapSel(9)), CapSel(2), 2)),
            Code::NoSuchService
        );
        assert_eq!(code(s.close_session(v(0), CapSel(2))), Code::InvalidArgs);
        s.close_session(v(1), CapSel(2)).unwrap();
        assert!(!holds(&s, (v(1), CapSel(2))));
        s.open_session(v(2), (v(0), CapSel(2)), CapSel(2), 2).unwrap();
        s.exit(v(0));
        assert!(!holds(&s, (v(2), CapSel(2))), "a session dies with its service");
    }

    /// A kernel digest and the model print the same forest once keys
    /// are renamed; a child link no record backs and a binding to
    /// another record show.
    #[test]
    fn canonical_renames_digest_keys() {
        let digest = [
            "cap DdlKey(PE1/VPE0/Memory/1) kind=Vpe { vpe: VpeId(0) } owner=VPE0 sel=CapSel(0) \
             parent=None children=[DdlKey(PE2/VPE1/Memory/7), DdlKey(PE9/VPE9/Memory/9)]",
            "cap DdlKey(PE2/VPE1/Memory/7) kind=Vpe { vpe: VpeId(0) } owner=VPE1 sel=CapSel(4) \
             parent=Some(DdlKey(PE1/VPE0/Memory/1)) children=[]",
            "bind VPE0 CapSel(0) -> DdlKey(PE1/VPE0/Memory/1)",
            "bind VPE1 CapSel(5) -> DdlKey(PE2/VPE1/Memory/7)",
        ];
        let lines = canonical(digest.iter().map(|l| l.to_string()));
        assert_eq!(
            lines,
            [
                "bind VPE1/sel5 -> VPE1/sel4",
                "cap VPE0/sel0 kind=Vpe { vpe: VpeId(0) } parent=- children=[? VPE1/sel4]",
                "cap VPE1/sel4 kind=Vpe { vpe: VpeId(0) } parent=VPE0/sel0 children=[]",
            ]
        );
        let mut s = Spec::new();
        s.add_vpe(v(0));
        assert_eq!(s.forest(), ["cap VPE0/sel0 kind=Vpe { vpe: VpeId(0) } parent=- children=[]"]);
    }
}
