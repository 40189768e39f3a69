//! A bounded store of solved half-cell transfer curves.
//!
//! Eq. 17 judges each RDF sample under `M` RTN draws. A draw shifts only
//! the loads and drivers, by whole trap counts, so many shifted copies of
//! one sample leave one half-cell's three devices bit-identical to a copy
//! already simulated, and that half's transfer curve is solved again
//! from the same inputs. `CurveStore` keeps recently solved curves and
//! hands them back instead.
//!
//! A curve is a pure function of what its solve reads: which half, the
//! threshold shifts of that half's load, driver and access devices, the
//! word-line and bit-line voltages, the grid and the resolution (the
//! supply, temperature and technology cards are fixed per bench). Each
//! grid point's solve starts from roots of the same half only: earlier
//! roots of the same curve and, on the bench's full-resolution 61-point
//! grid, the same half's coarse curve, whose grid and resolution are
//! fixed. So a stored curve is bit-identical to the one a fresh solve
//! would produce. The key holds the exact bits of all of these; a hit
//! must match the whole key, not only its hash.
//!
//! A stored curve keeps the Newton evaluations its solve cost, and a
//! reuse books them again: effort ledgers count the work behind the
//! verdicts, whether a curve was solved or reused, so every ledger reads
//! the same with or without the store and at any thread count.

use crate::sram::{BiasCondition, CellDevice, Sram6T};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Slots of a store. Shifted copies of one sample are evaluated close
/// together, so few curves are live at a time. On the CLI `estimate`
/// defaults (seeds 1–4, one thread) 64 slots find 87 % of the hits that
/// 4096 find, 256 find 95 % and 1024 find 99 %. At 1024 a store holds at
/// most 0.5 MB of default-grid curves (2 MB of the retry ladder's
/// largest).
const SLOTS: usize = 1024;

/// Why a slot lock cannot be poisoned: nothing that runs under it
/// panics (an allocation failure aborts).
const UNPOISONED: &str = "no curve-store slot is locked across a panic";

/// The exact bits of everything one half-cell curve solve reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CurveKey {
    /// Right half (`V_QB = f_R(V_Q)`) or left half.
    right: bool,
    /// Threshold shifts of the half's load, driver and access devices.
    delta_vth: [u64; 3],
    /// Word-line voltage.
    wl: u64,
    /// The half's bit-line voltage.
    bit_line: u64,
    /// Grid points of the curve.
    points: usize,
    /// Solver resolution.
    resolution: u64,
}

impl CurveKey {
    fn of(
        cell: &Sram6T,
        bias: &BiasCondition,
        right: bool,
        points: usize,
        resolution: f64,
    ) -> Self {
        let shift = |left: CellDevice| {
            let device = if right { left.mirrored() } else { left };
            cell.device(device).delta_vth.to_bits()
        };
        Self {
            right,
            delta_vth: [
                shift(CellDevice::LoadL),
                shift(CellDevice::DriverL),
                shift(CellDevice::AccessL),
            ],
            wl: bias.wl.to_bits(),
            bit_line: if right { bias.blb } else { bias.bl }.to_bits(),
            points,
            resolution: resolution.to_bits(),
        }
    }

    /// The key's slot: an FxHash-style fold of its words.
    fn slot(&self) -> usize {
        let words = [
            u64::from(self.right),
            self.delta_vth[0],
            self.delta_vth[1],
            self.delta_vth[2],
            self.wl,
            self.bit_line,
            self.points as u64,
            self.resolution,
        ];
        let h = words.iter().fold(0u64, |h, w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        (h >> 32) as usize % SLOTS
    }
}

/// One stored curve.
#[derive(Debug)]
struct Entry {
    key: CurveKey,
    outputs: Vec<f64>,
    newton_iters: u64,
}

/// Reuse counts of a bench's curve store: physical work avoided, never
/// logical effort (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CurveReuse {
    /// Curves taken from the store instead of solved.
    pub hits: u64,
    /// Curves solved because the store did not hold them.
    pub misses: u64,
}

/// A bounded, thread-safe store of solved half-cell transfer curves (see
/// the module docs). Direct-mapped: a new curve replaces whatever its
/// slot held. Its key leaves out the supply, temperature and technology
/// cards, so one store serves the cells of one bench only.
#[derive(Debug)]
pub(crate) struct CurveStore {
    slots: Box<[Mutex<Option<Entry>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for CurveStore {
    fn default() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Mutex::new(None)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl CurveStore {
    /// How many curves were reused and how many solved so far.
    pub(crate) fn reuse(&self) -> CurveReuse {
        CurveReuse {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The curve of one half of `cell` under `bias` on `points` grid
    /// points, with the Newton evaluations its solve cost: taken from the
    /// store, else computed by `solve` and stored.
    pub(crate) fn curve(
        &self,
        cell: &Sram6T,
        bias: &BiasCondition,
        right: bool,
        points: usize,
        resolution: f64,
        solve: impl FnOnce() -> (Vec<f64>, u64),
    ) -> (Vec<f64>, u64) {
        let key = CurveKey::of(cell, bias, right, points, resolution);
        let slot = &self.slots[key.slot()];
        if let Some(entry) = slot
            .lock()
            .expect(UNPOISONED)
            .as_ref()
            .filter(|e| e.key == key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (entry.outputs.clone(), entry.newton_iters);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (outputs, newton_iters) = solve();
        let mut held = slot.lock().expect(UNPOISONED);
        match held.as_mut() {
            // Refill the evicted entry's buffer: no allocation once the
            // slot has held a curve this long.
            Some(entry) => {
                entry.key = key;
                entry.outputs.clear();
                entry.outputs.extend_from_slice(&outputs);
                entry.newton_iters = newton_iters;
            }
            None => {
                *held = Some(Entry {
                    key,
                    outputs: outputs.clone(),
                    newton_iters,
                })
            }
        }
        (outputs, newton_iters)
    }
}
