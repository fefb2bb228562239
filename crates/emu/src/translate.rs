//! Basic-block translation with sanitizer probe splicing.
//!
//! This module is the reproduction's TCG: guest code is decoded once into
//! cached blocks of "translated" operations. When a sanitizer arms memory
//! probes, the *translation templates change* — each memory operation in a
//! freshly translated block carries a probe marker, and the whole cache is
//! flushed so stale unprobed blocks cannot run. This is precisely the §3.3
//! mechanism ("the Runtime modifies its translation template by inserting a
//! call to a delegate function `load_intercept()`"), expressed in a
//! micro-op interpreter instead of emitted host code.

use std::collections::HashMap;

use embsan_obs::{MetricClass, MetricsRegistry};

use crate::bus::Bus;
use crate::error::Fault;
use crate::hook::HookConfig;
use crate::isa::{Insn, Reg, Word};

/// Maximum instructions per translation block.
pub const MAX_BLOCK_LEN: usize = 64;

/// Maximum instructions per superblock (merged across unconditional direct
/// jumps). Bounds self-loop promotion, which otherwise doubles the block on
/// every merge.
pub const MAX_SUPERBLOCK_LEN: usize = 256;

/// One translated operation: a decoded instruction plus the probe markers
/// spliced in at translation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslatedOp {
    /// The decoded instruction.
    pub insn: Insn,
    /// Guest address of the instruction.
    pub pc: u32,
    /// A memory probe precedes this op (set only for memory accesses, and
    /// only when the translation-time hook configuration armed `mem`).
    pub probe_mem: bool,
    /// A call/return probe is attached to this op.
    pub probe_call: bool,
}

/// The id of a block in its generation's arena (see [`BlockCache`]).
pub type BlockId = u32;

/// The id an empty chain slot or front-cache entry holds: it indexes no
/// block.
const NO_BLOCK: BlockId = BlockId::MAX;

/// Number of chain slots per block. Two covers both edges of a conditional
/// branch terminator (taken and fall-through).
const CHAIN_SLOTS: usize = 2;

/// A translated basic block.
///
/// Blocks carry two dispatch accelerators on top of their ops:
///
/// * **Chain slots** — `(target pc, id)` successor edges installed by the
///   executor so a repeat of the same control transfer skips the
///   [`BlockCache`] lookup entirely. An edge is followed only while its
///   target is live. Chains and liveness are dispatch state, not
///   translation content: clones start unchained and equality ignores
///   them.
/// * **Seams** — when blocks are merged into a superblock (see
///   [`BlockCache::try_promote`]), each merge point is recorded as
///   `(op_index, pc)`: the op at `op_index` is the first instruction of the
///   constituent block that started at `pc`. The executor uses seams to keep
///   block-entry probes and quantum accounting identical to the unmerged
///   execution.
#[derive(Debug)]
pub struct Block {
    /// Guest address of the first instruction.
    pub start: u32,
    /// The translated operations, in program order.
    pub ops: Vec<TranslatedOp>,
    /// Superblock merge points, ascending by op index (empty for plain
    /// blocks).
    pub seams: Vec<(usize, u32)>,
    chains: [(u32, BlockId); CHAIN_SLOTS],
    /// Whether this block is still its generation's block at `start`.
    /// Promotion replacing it clears the flag, and a chain to a block that
    /// is not live is never followed.
    live: bool,
}

impl Block {
    /// Creates a plain (seamless, unchained, live) block.
    fn new(start: u32, ops: Vec<TranslatedOp>, seams: Vec<(usize, u32)>) -> Block {
        Block { start, ops, seams, chains: [(0, NO_BLOCK); CHAIN_SLOTS], live: true }
    }

    /// Whether the block ends in an unconditional direct jump to `target` —
    /// the precondition for merging it with the block at `target` into a
    /// superblock (every execution of the terminator lands on `target`, so
    /// a seam there is always taken).
    fn ends_with_jump_to(&self, target: u32) -> bool {
        match self.ops.last() {
            Some(op) => match op.insn {
                Insn::Jal { rd: Reg::R0, offset } => op.pc.wrapping_add(offset as u32) == target,
                _ => false,
            },
            None => false,
        }
    }
}

impl Clone for Block {
    fn clone(&self) -> Block {
        // Chains are per-instance dispatch state: a clone starts unchained.
        Block::new(self.start, self.ops.clone(), self.seams.clone())
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.start == other.start && self.ops == other.ops && self.seams == other.seams
    }
}

impl Eq for Block {}

/// Counters describing translation-cache behaviour, exposed through
/// `Machine::cache_stats` into the bench and campaign telemetry.
///
/// All counters are monotonic over the cache's lifetime (flushes do not
/// reset them), so deltas between two observations measure an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Blocks translated (each one is a cache miss that ran the decoder).
    pub translations: u64,
    /// Lookups served from a cached block.
    pub hits: u64,
    /// Hook-configuration switches that actually changed the configuration.
    pub reconfigures: u64,
    /// Reconfigurations that found a retained generation and reused its
    /// blocks instead of retranslating (the flush-on-reconfigure fix).
    pub generation_hits: u64,
    /// Generations evicted by the LRU bound.
    pub generation_evictions: u64,
    /// Full flushes (host-side code patching drops every generation).
    pub flushes: u64,
    /// Dispatches served through a direct chain edge or a superblock seam
    /// instead of a cache lookup (a subset of `hits`).
    pub chained_dispatches: u64,
    /// Superblocks formed by merging across unconditional direct jumps.
    pub superblocks_formed: u64,
}

impl CacheStats {
    /// Field-wise sum (aggregating per-worker caches in parallel campaigns).
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            translations: self.translations + other.translations,
            hits: self.hits + other.hits,
            reconfigures: self.reconfigures + other.reconfigures,
            generation_hits: self.generation_hits + other.generation_hits,
            generation_evictions: self.generation_evictions + other.generation_evictions,
            flushes: self.flushes + other.flushes,
            chained_dispatches: self.chained_dispatches + other.chained_dispatches,
            superblocks_formed: self.superblocks_formed + other.superblocks_formed,
        }
    }

    /// Copies every counter into `registry` under the `translator`
    /// subsystem, all in `class`.
    pub fn record_into(&self, registry: &mut MetricsRegistry, class: MetricClass) {
        registry.counter("translator", "translations", class, self.translations);
        registry.counter("translator", "hits", class, self.hits);
        registry.counter("translator", "reconfigures", class, self.reconfigures);
        registry.counter("translator", "generation_hits", class, self.generation_hits);
        registry.counter("translator", "generation_evictions", class, self.generation_evictions);
        registry.counter("translator", "flushes", class, self.flushes);
        registry.counter("translator", "chained_dispatches", class, self.chained_dispatches);
        registry.counter("translator", "superblocks_formed", class, self.superblocks_formed);
    }
}

/// One retained translation generation: every block translated under a
/// single [`HookConfig`].
#[derive(Debug)]
struct Generation {
    config: HookConfig,
    /// The arena: every block translated or formed under `config` since the
    /// generation was last cleared, addressed by id. A block that promotion
    /// replaced stays in place, not live, so no id ever points elsewhere.
    blocks: Vec<Block>,
    /// The live block at each start address.
    index: HashMap<u32, BlockId>,
    /// Reconfiguration clock at last activation (LRU victim selection).
    last_used: u64,
}

impl Generation {
    fn new(config: HookConfig, last_used: u64) -> Generation {
        Generation { config, blocks: Vec::new(), index: HashMap::new(), last_used }
    }

    /// Drops every block, retiring every id issued so far.
    fn clear(&mut self) {
        self.blocks.clear();
        self.index.clear();
    }

    /// Adds `block` to the arena as the live block at its start address,
    /// marking the block it replaces there (if any) not live.
    fn install(&mut self, block: Block) -> BlockId {
        let id = self.blocks.len() as BlockId;
        if let Some(old) = self.index.insert(block.start, id) {
            self.blocks[old as usize].live = false;
        }
        self.blocks.push(block);
        id
    }
}

/// Cache of translated blocks, keyed by `(start address, generation)`.
///
/// Each generation holds its blocks in an arena addressed by [`BlockId`]s;
/// the executor, the front cache and chain slots all refer to blocks by id.
/// An id stays valid until its generation is cleared, flushed or evicted,
/// none of which can happen while a quantum runs, except the defensive
/// overflow clear (see [`BlockCache::enter`]).
///
/// Each [`HookConfig`] the machine runs under gets its own *generation* of
/// translated blocks. Switching configurations via
/// [`BlockCache::reconfigure`] no longer flushes: a previously seen
/// configuration reactivates its retained generation, so workloads that
/// toggle sanitizer configurations (the ablation and overhead benches, the
/// fuzzer's coverage arming) retranslate the image at most once per
/// configuration. At most [`MAX_GENERATIONS`] generations are retained;
/// beyond that the least-recently-activated generation is evicted.
#[derive(Debug)]
pub struct BlockCache {
    gens: Vec<Generation>,
    /// Index of the active generation in `gens`.
    current: usize,
    /// Direct-mapped front cache over the active generation (the analogue
    /// of TCG's block chaining): most lookups hit here without touching the
    /// hash map. Invalidated on generation switch.
    front: Vec<BlockId>,
    /// Reconfiguration clock driving `Generation::last_used`.
    clock: u64,
    stats: CacheStats,
    tracer: embsan_obs::Tracer,
}

impl Default for BlockCache {
    fn default() -> BlockCache {
        BlockCache::new()
    }
}

/// Size of the direct-mapped front cache (power of two).
const FRONT_SIZE: usize = 1 << 14;

/// Maximum retained generations (LRU-bounded; the active one never counts
/// as a victim).
pub const MAX_GENERATIONS: usize = 8;

/// Per-generation arena bound, counting replaced blocks too: a generation
/// that somehow reaches it is cleared rather than growing without limit
/// (defensive; real firmware text is orders of magnitude smaller), and
/// promotion stops forming superblocks in a full arena.
const MAX_BLOCKS_PER_GENERATION: usize = 1 << 16;

#[inline]
fn front_index(pc: u32) -> usize {
    (pc >> 2) as usize & (FRONT_SIZE - 1)
}

impl BlockCache {
    /// Creates an empty cache with no probes armed.
    pub fn new() -> BlockCache {
        BlockCache {
            gens: vec![Generation::new(HookConfig::none(), 0)],
            current: 0,
            front: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
            tracer: embsan_obs::Tracer::disabled(),
        }
    }

    /// Attaches an observability tracer (cache events: translate,
    /// generation hit/evict, flush).
    pub fn set_tracer(&mut self, tracer: embsan_obs::Tracer) {
        self.tracer = tracer;
    }

    /// The hook configuration the active generation was translated under.
    pub fn config(&self) -> HookConfig {
        self.gens[self.current].config
    }

    /// Installs a new hook configuration.
    ///
    /// A configuration seen before reactivates its retained generation
    /// (no retranslation); a new one opens a fresh generation, evicting the
    /// least-recently-used retained generation beyond [`MAX_GENERATIONS`].
    pub fn reconfigure(&mut self, config: HookConfig) {
        if config == self.gens[self.current].config {
            return;
        }
        self.stats.reconfigures += 1;
        self.clock += 1;
        // The front cache indexes the active generation only.
        self.front.clear();
        if let Some(idx) = self.gens.iter().position(|g| g.config == config) {
            self.current = idx;
            self.gens[idx].last_used = self.clock;
            self.stats.generation_hits += 1;
            self.tracer.record(embsan_obs::EventKind::CacheGenerationHit {
                generations: self.gens.len() as u32,
            });
            return;
        }
        if self.gens.len() >= MAX_GENERATIONS {
            // Infallible: MAX_GENERATIONS ≥ 2, so at least one non-current
            // generation exists.
            let victim = self
                .gens
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != self.current)
                .min_by_key(|&(_, g)| g.last_used)
                .map(|(i, _)| i)
                .expect("at least one evictable generation");
            self.gens.remove(victim);
            if victim < self.current {
                self.current -= 1;
            }
            self.stats.generation_evictions += 1;
            self.tracer.record(embsan_obs::EventKind::CacheGenerationEvict {
                generations: self.gens.len() as u32,
            });
        }
        self.gens.push(Generation::new(config, self.clock));
        self.current = self.gens.len() - 1;
    }

    /// Drops every cached block in every generation (e.g. after host-side
    /// code patching — the translated code is stale in *all* generations).
    pub fn flush(&mut self) {
        for gen in &mut self.gens {
            gen.clear();
        }
        self.front.clear();
        self.stats.flushes += 1;
        self.tracer.record(embsan_obs::EventKind::CacheFlush);
    }

    /// Number of blocks translated since creation (monotonic; not reset by
    /// flushes). Used by tests to observe cache behaviour.
    pub fn translation_count(&self) -> u64 {
        self.stats.translations
    }

    /// Number of cache hits since creation.
    pub fn hit_count(&self) -> u64 {
        self.stats.hits
    }

    /// All cache counters (hit/miss/generation telemetry).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The block `id` of the active generation.
    #[inline(always)]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.gens[self.current].blocks[id as usize]
    }

    /// Records `count` dispatches served through superblock seams: hits
    /// (they ran cached translation) that skipped the lookup path entirely.
    pub(crate) fn note_seams(&mut self, count: u64) {
        self.stats.hits += count;
        self.stats.chained_dispatches += count;
    }

    /// The executor's dispatch step: the id of the block at `pc`, entered
    /// from `prev`, the block the previous dispatch of the quantum ran.
    ///
    /// A live chain edge `prev → pc` answers without a lookup. Otherwise the
    /// block is looked up (or translated) and `prev` is linked to it: merged
    /// into a superblock across an unconditional direct jump, else chained
    /// so the edge's next occurrence skips the lookup. (This dispatch still
    /// runs the unmerged block; the superblock serves future dispatches of
    /// its start.) An overflow clear during the lookup retires `prev`'s id,
    /// so nothing is linked then.
    ///
    /// # Errors
    ///
    /// Returns a fetch or decode fault if `pc` does not point at valid code.
    #[inline(always)]
    pub(crate) fn enter(
        &mut self,
        bus: &Bus,
        prev: Option<BlockId>,
        pc: u32,
    ) -> Result<BlockId, Fault> {
        let Some(prev) = prev else {
            return self.lookup(bus, pc);
        };
        if let Some(id) = self.chained(prev, pc) {
            self.stats.hits += 1;
            self.stats.chained_dispatches += 1;
            return Ok(id);
        }
        let (id, cleared) = self.resolve(bus, pc)?;
        if !cleared && (!self.block(prev).ends_with_jump_to(pc) || !self.try_promote(prev, pc)) {
            self.install_chain(prev, pc, id);
        }
        Ok(id)
    }

    /// Follows the chain edge `from → target`, if one is installed and its
    /// block is still live.
    #[inline(always)]
    fn chained(&self, from: BlockId, target: u32) -> Option<BlockId> {
        let blocks = &self.gens[self.current].blocks;
        let (_, id) = blocks[from as usize].chains.into_iter().find(|&(t, _)| t == target)?;
        blocks.get(id as usize).filter(|block| block.live).map(|_| id)
    }

    /// Installs (or refreshes) the chain edge `from → target` to block
    /// `next`. An existing slot for the same target is reused, then an
    /// empty slot or one whose block is not live; with all slots live for
    /// other targets the edge is dropped — chains are an accelerator, never
    /// required for correctness.
    fn install_chain(&mut self, from: BlockId, target: u32, next: BlockId) {
        let blocks = &mut self.gens[self.current].blocks;
        let chains = &blocks[from as usize].chains;
        let slot = chains.iter().position(|&(t, _)| t == target).or_else(|| {
            chains.iter().position(|&(_, id)| blocks.get(id as usize).is_none_or(|b| !b.live))
        });
        if let Some(i) = slot {
            blocks[from as usize].chains[i] = (target, next);
        }
    }

    /// Merges block `prev` with the live block at `target` into a
    /// superblock installed at `prev`'s start, recording the merge point as
    /// a seam. The block it replaces there stops being live.
    ///
    /// The caller guarantees `prev` ends in an unconditional direct jump to
    /// `target` (the seam contract: every execution of the last op of
    /// `prev`'s portion lands on `target`). The constituent block stays
    /// cached under its own start address — quantum expiry at a seam resumes
    /// through a plain lookup of the seam pc.
    ///
    /// Returns `false` when the merge does not apply (target not in the
    /// active generation's index, the combined block would exceed
    /// [`MAX_SUPERBLOCK_LEN`], or the arena is full).
    fn try_promote(&mut self, prev: BlockId, target: u32) -> bool {
        let gen = &mut self.gens[self.current];
        let Some(&next) = gen.index.get(&target) else {
            return false;
        };
        let (head, tail) = (&gen.blocks[prev as usize], &gen.blocks[next as usize]);
        if head.ops.len() + tail.ops.len() > MAX_SUPERBLOCK_LEN
            || gen.blocks.len() >= MAX_BLOCKS_PER_GENERATION
        {
            return false;
        }
        let mut ops = Vec::with_capacity(head.ops.len() + tail.ops.len());
        ops.extend_from_slice(&head.ops);
        ops.extend_from_slice(&tail.ops);
        let mut seams = head.seams.clone();
        seams.push((head.ops.len(), target));
        seams.extend(tail.seams.iter().map(|&(i, pc)| (i + head.ops.len(), pc)));
        let start = head.start;
        let id = gen.install(Block::new(start, ops, seams));
        if !self.front.is_empty() {
            self.front[front_index(start)] = id;
        }
        self.stats.superblocks_formed += 1;
        true
    }

    /// Looks up (or translates) the block starting at `pc` in the active
    /// generation and returns its id.
    ///
    /// # Errors
    ///
    /// Returns a fetch or decode fault if `pc` does not point at valid code.
    pub fn lookup(&mut self, bus: &Bus, pc: u32) -> Result<BlockId, Fault> {
        self.resolve(bus, pc).map(|(id, _)| id)
    }

    /// [`BlockCache::lookup`], also telling whether a translation found the
    /// arena full and cleared the generation, retiring every earlier id.
    fn resolve(&mut self, bus: &Bus, pc: u32) -> Result<(BlockId, bool), Fault> {
        if self.front.is_empty() {
            self.front.resize(FRONT_SIZE, NO_BLOCK);
        }
        let slot = front_index(pc);
        let gen = &mut self.gens[self.current];
        let id = self.front[slot];
        if gen.blocks.get(id as usize).is_some_and(|block| block.start == pc) {
            self.stats.hits += 1;
            return Ok((id, false));
        }
        if let Some(&id) = gen.index.get(&pc) {
            self.stats.hits += 1;
            self.front[slot] = id;
            return Ok((id, false));
        }
        let block = translate_block(bus, pc, gen.config)?;
        self.stats.translations += 1;
        self.tracer.record(embsan_obs::EventKind::BlockTranslate { pc });
        let cleared = gen.blocks.len() >= MAX_BLOCKS_PER_GENERATION;
        if cleared {
            gen.clear();
            self.front.fill(NO_BLOCK);
        }
        let id = gen.install(block);
        self.front[slot] = id;
        Ok((id, cleared))
    }
}

/// Whether an instruction is a call (writes a link register other than `r0`).
pub fn is_call(insn: &Insn) -> bool {
    match insn {
        Insn::Jal { rd, .. } | Insn::Jalr { rd, .. } => *rd != Reg::ZERO,
        _ => false,
    }
}

/// Whether an instruction is a return (`jalr r0, lr, 0` by ABI convention).
pub fn is_ret(insn: &Insn) -> bool {
    matches!(insn, Insn::Jalr { rd: Reg::R0, rs1: Reg::LR, .. })
}

/// Translates the block starting at `pc` without going through a cache —
/// exactly the ops [`BlockCache::lookup`] would produce under `config`.
///
/// This is the hook for static tooling (the `embsan-analysis` probe-coverage
/// auditor) that needs to cross-check the translator's probe splicing
/// against an independent enumeration of memory-op sites.
///
/// # Errors
///
/// Returns a fetch or decode fault if `pc` does not point at valid code.
pub fn translate_block_at(bus: &Bus, pc: u32, config: HookConfig) -> Result<Block, Fault> {
    translate_block(bus, pc, config)
}

/// Decodes a block starting at `pc`, splicing probes per `config`.
fn translate_block(bus: &Bus, pc: u32, config: HookConfig) -> Result<Block, Fault> {
    let mut ops = Vec::new();
    let mut cur = pc;
    loop {
        // A fetch or decode failure past the first instruction ends the block
        // early instead of faulting: the fault (if reachable) materializes
        // when execution actually arrives there.
        let raw = match bus.fetch(cur) {
            Ok(raw) => raw,
            Err(fault) => {
                if ops.is_empty() {
                    return Err(fault);
                }
                break;
            }
        };
        let insn = match Insn::decode(Word(raw)) {
            Ok(insn) => insn,
            Err(_) => {
                if ops.is_empty() {
                    return Err(Fault::IllegalInsn { pc: cur, word: raw });
                }
                break;
            }
        };
        let probe_mem = config.mem && insn.is_mem_access();
        let probe_call = config.calls && (is_call(&insn) || is_ret(&insn));
        ops.push(TranslatedOp { insn, pc: cur, probe_mem, probe_call });
        if insn.ends_block() || ops.len() >= MAX_BLOCK_LEN {
            break;
        }
        cur = cur.wrapping_add(4);
    }
    Ok(Block::new(pc, ops, Vec::new()))
}

/// Classification of a call-probe op used by the executor.
pub(crate) fn call_kind(insn: &Insn) -> CallKind {
    if is_ret(insn) {
        CallKind::Ret
    } else if is_call(insn) {
        CallKind::Call
    } else {
        CallKind::Neither
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CallKind {
    Call,
    Ret,
    Neither,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ArchProfile;

    fn bus_with_text(insns: &[Insn]) -> (Bus, u32) {
        let profile = ArchProfile::armv();
        let mut text = Vec::new();
        for insn in insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        let bus = Bus::new(&profile, profile.rom_base, text, profile.ram_base, 0x1000, 1);
        (bus, profile.rom_base)
    }

    #[test]
    fn block_ends_at_branch() {
        let (bus, base) = bus_with_text(&[
            Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: 1 },
            Insn::Lw { rd: Reg::R2, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: -8 },
            Insn::Halt { code: 0 }, // unreachable, not part of block
        ]);
        let mut cache = BlockCache::new();
        let id = cache.lookup(&bus, base).unwrap();
        let block = cache.block(id);
        assert_eq!(block.ops.len(), 3);
        assert!(matches!(block.ops[2].insn, Insn::Jal { .. }));
    }

    #[test]
    fn probes_spliced_only_when_armed() {
        let (bus, base) = bus_with_text(&[
            Insn::Lw { rd: Reg::R2, rs1: Reg::R1, imm: 0 },
            Insn::Halt { code: 0 },
        ]);
        let mut cache = BlockCache::new();
        let id = cache.lookup(&bus, base).unwrap();
        let block = cache.block(id);
        assert!(!block.ops[0].probe_mem);

        cache.reconfigure(HookConfig { mem: true, ..HookConfig::none() });
        let id = cache.lookup(&bus, base).unwrap();
        let block = cache.block(id);
        assert!(block.ops[0].probe_mem);
        assert!(!block.ops[1].probe_mem); // halt is not a memory access
    }

    #[test]
    fn reconfigure_opens_new_generation() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        cache.lookup(&bus, base).unwrap();
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 1);
        assert_eq!(cache.hit_count(), 1);

        // A new configuration has no blocks yet: one fresh translation.
        cache.reconfigure(HookConfig::all());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);

        // Reinstalling the same config is a no-op.
        cache.reconfigure(HookConfig::all());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);
        assert_eq!(cache.hit_count(), 2);
    }

    #[test]
    fn toggling_config_reuses_retained_generation() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        let plain = HookConfig::none();
        let armed = HookConfig::all();

        cache.lookup(&bus, base).unwrap();
        cache.reconfigure(armed);
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);

        // Toggling back and forth must not retranslate: both generations
        // are retained.
        for _ in 0..10 {
            cache.reconfigure(plain);
            cache.lookup(&bus, base).unwrap();
            cache.reconfigure(armed);
            cache.lookup(&bus, base).unwrap();
        }
        assert_eq!(cache.translation_count(), 2);
        let stats = cache.stats();
        assert_eq!(stats.generation_hits, 20);
        assert_eq!(stats.generation_evictions, 0);
        assert_eq!(stats.reconfigures, 21);
    }

    #[test]
    fn lru_generation_eviction_respects_bound() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        // Cycle through more distinct configs than MAX_GENERATIONS. The
        // four HookConfig flags give 16 distinct configurations.
        let configs: Vec<HookConfig> = (0u8..16)
            .map(|bits| HookConfig {
                mem: bits & 1 != 0,
                hypercalls: bits & 2 != 0,
                blocks: bits & 4 != 0,
                calls: bits & 8 != 0,
            })
            .collect();
        for config in &configs {
            cache.reconfigure(*config);
            cache.lookup(&bus, base).unwrap();
        }
        assert_eq!(cache.stats().generation_evictions as usize, configs.len() - MAX_GENERATIONS);
        // The most recent config is still active and cached.
        let hits_before = cache.hit_count();
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.hit_count(), hits_before + 1);
    }

    #[test]
    fn flush_clears_every_generation() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        cache.lookup(&bus, base).unwrap();
        cache.reconfigure(HookConfig::all());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);

        cache.flush();
        // Both the active and the retained generation were dropped.
        cache.lookup(&bus, base).unwrap();
        cache.reconfigure(HookConfig::none());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 4);
        assert_eq!(cache.stats().flushes, 1);
    }

    #[test]
    fn call_and_ret_classification() {
        assert_eq!(call_kind(&Insn::Jal { rd: Reg::LR, offset: 16 }), CallKind::Call);
        assert_eq!(call_kind(&Insn::Jalr { rd: Reg::LR, rs1: Reg::R3, imm: 0 }), CallKind::Call);
        assert_eq!(call_kind(&Insn::Jalr { rd: Reg::R0, rs1: Reg::LR, imm: 0 }), CallKind::Ret);
        // A plain computed goto is neither.
        assert_eq!(call_kind(&Insn::Jalr { rd: Reg::R0, rs1: Reg::R3, imm: 0 }), CallKind::Neither);
    }

    #[test]
    fn illegal_instruction_reports_pc() {
        let profile = ArchProfile::armv();
        let bus = Bus::new(&profile, profile.rom_base, vec![0xFF; 8], profile.ram_base, 0x1000, 1);
        let mut cache = BlockCache::new();
        let err = cache.lookup(&bus, profile.rom_base).unwrap_err();
        assert_eq!(err, Fault::IllegalInsn { pc: profile.rom_base, word: 0xFFFF_FFFF });
    }

    #[test]
    fn max_block_length_is_enforced() {
        let insns = vec![Insn::Nop; MAX_BLOCK_LEN + 10];
        let (bus, base) = bus_with_text(&insns);
        let mut cache = BlockCache::new();
        let id = cache.lookup(&bus, base).unwrap();
        let block = cache.block(id);
        assert_eq!(block.ops.len(), MAX_BLOCK_LEN);
    }

    /// Block `A` at `base` (a load, then `jal r0` to `B`) and block `B` at
    /// `base + 8` (then a conditional branch back to `A`): `A → B` merges
    /// into a superblock, `B → A` chains.
    fn two_block_loop() -> (Bus, u32, u32) {
        let (bus, base) = bus_with_text(&[
            Insn::Lw { rd: Reg::R1, rs1: Reg::R2, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: 4 },
            Insn::Addi { rd: Reg::R2, rs1: Reg::R2, imm: 1 },
            Insn::Beq { rs1: Reg::R0, rs2: Reg::R0, offset: -12 },
        ]);
        (bus, base, base + 8)
    }

    fn chain_targets(cache: &BlockCache, id: BlockId) -> Vec<u32> {
        cache.block(id).chains.iter().filter(|&&(_, to)| to != NO_BLOCK).map(|&(t, _)| t).collect()
    }

    fn arena_len(cache: &BlockCache) -> usize {
        cache.gens[cache.current].blocks.len()
    }

    #[test]
    fn promotion_retires_the_replaced_block_and_its_chains() {
        let (bus, a_pc, b_pc) = two_block_loop();
        let mut cache = BlockCache::new();
        let a = cache.lookup(&bus, a_pc).unwrap();
        let b = cache.lookup(&bus, b_pc).unwrap();
        // B ends in a conditional branch: entering A from B chains the edge.
        assert_eq!(cache.enter(&bus, Some(b), a_pc), Ok(a));
        assert_eq!(cache.chained(b, a_pc), Some(a));
        // A ends in `jal r0` to B: entering B from A replaces A by A+B.
        assert_eq!(cache.enter(&bus, Some(a), b_pc), Ok(b));
        assert_eq!(cache.stats().superblocks_formed, 1);
        let merged = cache.lookup(&bus, a_pc).unwrap();
        assert_ne!(merged, a);
        assert_eq!(cache.block(merged).seams, vec![(2, b_pc)]);
        // The replaced block keeps its id and its ops, but is not live: the
        // chain to it is not followed, and the next entry re-links to A+B
        // in the same slot.
        assert!(!cache.block(a).live);
        assert_eq!(cache.block(a).ops.len(), 2);
        assert_eq!(cache.chained(b, a_pc), None);
        let chained = cache.stats().chained_dispatches;
        assert_eq!(cache.enter(&bus, Some(b), a_pc), Ok(merged));
        assert_eq!(cache.stats().chained_dispatches, chained);
        assert_eq!(cache.chained(b, a_pc), Some(merged));
        assert_eq!(chain_targets(&cache, b), vec![a_pc]);
        assert_eq!(arena_len(&cache), 3);
    }

    #[test]
    fn ids_index_the_active_generation_across_lru_eviction() {
        let (bus, a_pc, b_pc) = two_block_loop();
        let mut cache = BlockCache::new();
        let configs: Vec<HookConfig> = (0u8..16)
            .map(|bits| HookConfig {
                mem: bits & 1 != 0,
                hypercalls: bits & 2 != 0,
                blocks: bits & 4 != 0,
                calls: bits & 8 != 0,
            })
            .collect();
        // Each generation gets its own `B → A` chain, built in a different
        // order per generation so equal ids would name different blocks.
        let mut ids = Vec::new();
        for (n, config) in configs.iter().enumerate() {
            cache.reconfigure(*config);
            let (a, b) = if n % 2 == 0 {
                let a = cache.lookup(&bus, a_pc).unwrap();
                (a, cache.lookup(&bus, b_pc).unwrap())
            } else {
                let b = cache.lookup(&bus, b_pc).unwrap();
                (cache.lookup(&bus, a_pc).unwrap(), b)
            };
            assert_eq!(cache.enter(&bus, Some(b), a_pc), Ok(a));
            ids.push((a, b));
        }
        assert_eq!(cache.stats().generation_evictions as usize, configs.len() - MAX_GENERATIONS);
        // Eviction shifted the retained generations; their ids and chains
        // still name their own blocks.
        let retained = configs.len() - MAX_GENERATIONS;
        for (config, &(a, b)) in configs.iter().zip(&ids).skip(retained) {
            cache.reconfigure(*config);
            assert_eq!(cache.lookup(&bus, a_pc), Ok(a));
            assert_eq!(cache.block(a).start, a_pc);
            assert_eq!(cache.block(a).ops[0].probe_mem, config.mem);
            assert_eq!(cache.block(b).start, b_pc);
            assert_eq!(cache.chained(b, a_pc), Some(a));
        }
        // An evicted configuration starts a fresh, unchained arena.
        let translations = cache.translation_count();
        cache.reconfigure(configs[0]);
        let b = cache.lookup(&bus, b_pc).unwrap();
        assert_eq!((b, cache.translation_count()), (0, translations + 1));
        assert_eq!(cache.block(b).start, b_pc);
        assert!(chain_targets(&cache, b).is_empty());
        assert!(cache.gens.len() <= MAX_GENERATIONS);
    }

    #[test]
    fn flush_retires_every_id_and_chain() {
        let (bus, a_pc, b_pc) = two_block_loop();
        let mut cache = BlockCache::new();
        let a = cache.lookup(&bus, a_pc).unwrap();
        let b = cache.enter(&bus, Some(a), b_pc).unwrap();
        cache.enter(&bus, Some(b), a_pc).unwrap();
        assert_eq!(cache.stats().superblocks_formed, 1);
        cache.flush();
        assert_eq!(arena_len(&cache), 0);
        // Ids restart from 0 in the opposite order: the front cache must not
        // serve A's old id for B.
        let translations = cache.translation_count();
        let new_b = cache.lookup(&bus, b_pc).unwrap();
        assert_eq!(new_b, a);
        assert_eq!(cache.block(new_b).start, b_pc);
        let new_a = cache.lookup(&bus, a_pc).unwrap();
        assert_eq!(cache.block(new_a).start, a_pc);
        assert!(cache.block(new_a).seams.is_empty());
        assert_eq!(cache.translation_count(), translations + 2);
        assert_eq!(cache.chained(new_b, a_pc), None);
        assert!(chain_targets(&cache, new_b).is_empty());
    }

    #[test]
    fn overflow_clear_drops_the_stale_prev_and_keeps_the_arena_bounded() {
        // Block 0 jumps (`jal r0`) past MAX_BLOCKS_PER_GENERATION - 1
        // single-op filler blocks to the block at `target`.
        let n = MAX_BLOCKS_PER_GENERATION;
        let mut insns = vec![Insn::Jal { rd: Reg::R0, offset: 4 * n as i32 }];
        insns.extend(std::iter::repeat_n(Insn::Halt { code: 0 }, n));
        let (bus, base) = bus_with_text(&insns);
        let target = base + 4 * n as u32;
        let mut cache = BlockCache::new();
        let prev = cache.lookup(&bus, base).unwrap();
        for i in 1..n as u32 {
            cache.lookup(&bus, base + 4 * i).unwrap();
        }
        assert_eq!(arena_len(&cache), n);
        // A full arena forms no superblock.
        assert!(!cache.try_promote(prev, base + 4));
        // Translating `target` clears the full generation; `prev`'s id now
        // names `target`'s block, so the edge must be neither merged nor
        // chained from it.
        let id = cache.enter(&bus, Some(prev), target).unwrap();
        assert_eq!(id, prev);
        assert_eq!(arena_len(&cache), 1);
        assert_eq!(cache.block(id).start, target);
        assert!(cache.block(id).seams.is_empty());
        assert!(chain_targets(&cache, id).is_empty());
        assert_eq!(cache.stats().superblocks_formed, 0);
        // Every dropped block translates afresh, under a new id.
        let again = cache.lookup(&bus, base).unwrap();
        assert_eq!((again, cache.block(again).start), (1, base));
        assert_eq!(cache.translation_count(), n as u64 + 2);
    }
}
