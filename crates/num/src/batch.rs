//! Structure-of-arrays candidate batches: the result shape of a grid
//! sweep (`xlda_core::evaluate::sweep_scenarios`).
//!
//! [`CandidateBatch`] stores candidate rows column-wise (one contiguous
//! `Vec<f64>` per figure of merit), delimits points with a CSR-style
//! offset column, interns names once per batch, and keeps a parallel
//! per-point [`PointStatus`] column so one failing point cannot take
//! down its grid.
//!
//! A batch is filled with a strict protocol: interleave [`push_lane`]
//! calls with exactly one [`close_point`] *or* [`fail_point`] per input
//! point, in input order. `fail_point` discards any lanes already pushed
//! for the open point, mirroring the scalar path's `?` semantics where
//! the first failing candidate fails the whole point.
//!
//! [`push_lane`]: CandidateBatch::push_lane
//! [`close_point`]: CandidateBatch::close_point
//! [`fail_point`]: CandidateBatch::fail_point

/// Offset/prime pair of the FNV-1a fold used across the bench and parity
/// gates.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Per-point outcome recorded in a [`CandidateBatch`].
///
/// Everything except [`Ok`](PointStatus::Ok) means the point produced no
/// candidate lanes; the failure detail is in
/// [`CandidateBatch::point_message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointStatus {
    /// The point evaluated; its lanes are in the batch columns.
    Ok,
    /// The evaluator returned a typed error.
    Error,
    /// The evaluator panicked; the panic was contained to this point.
    Panicked,
}

/// Structure-of-arrays candidate storage for one sweep.
///
/// Rows ("lanes") are candidates; each input point owns the contiguous
/// lane range `offsets[p]..offsets[p + 1]`. Failed points own an empty
/// range and carry a [`PointStatus`] plus message instead.
#[derive(Debug, Clone, Default)]
pub struct CandidateBatch {
    names: Vec<String>,
    /// CSR point boundaries over the lane columns; `offsets[0] == 0`
    /// is implicit (the vec holds one entry per *closed* point).
    offsets: Vec<u32>,
    name_ids: Vec<u32>,
    latency_s: Vec<f64>,
    energy_j: Vec<f64>,
    area_mm2: Vec<f64>,
    accuracy: Vec<f64>,
    status: Vec<PointStatus>,
    /// Sparse `(point, message)` pairs for failed points, ascending by
    /// point index because points close in order.
    messages: Vec<(u32, String)>,
}

impl CandidateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of closed points.
    pub fn points(&self) -> usize {
        self.status.len()
    }

    /// Total candidate lanes across all closed points.
    pub fn lanes(&self) -> usize {
        self.closed_lanes()
    }

    /// Whether no point has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    fn closed_lanes(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Lanes pushed since the last point was closed.
    pub fn open_lanes(&self) -> usize {
        self.name_ids.len() - self.closed_lanes()
    }

    /// Interns `name`, returning its id for [`push_lane`]. Names are
    /// deduplicated per batch — candidate names repeat every point, so
    /// the table stays a handful of entries.
    ///
    /// [`push_lane`]: CandidateBatch::push_lane
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_owned());
        (self.names.len() - 1) as u32
    }

    /// The interned name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`intern`](CandidateBatch::intern)
    /// on this batch.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Appends one candidate lane to the currently open point.
    pub fn push_lane(
        &mut self,
        name_id: u32,
        latency_s: f64,
        energy_j: f64,
        area_mm2: f64,
        accuracy: f64,
    ) {
        debug_assert!((name_id as usize) < self.names.len(), "unknown name id");
        self.name_ids.push(name_id);
        self.latency_s.push(latency_s);
        self.energy_j.push(energy_j);
        self.area_mm2.push(area_mm2);
        self.accuracy.push(accuracy);
    }

    /// Closes the open point successfully, claiming every lane pushed
    /// since the previous close.
    pub fn close_point(&mut self) {
        self.offsets.push(self.name_ids.len() as u32);
        self.status.push(PointStatus::Ok);
    }

    /// Closes the open point as failed, discarding any lanes already
    /// pushed for it (the scalar path's first-error-fails-the-point
    /// semantics) and recording `status` + `message`.
    ///
    /// # Panics
    ///
    /// Panics if `status` is [`PointStatus::Ok`].
    pub fn fail_point(&mut self, status: PointStatus, message: impl Into<String>) {
        assert_ne!(
            status,
            PointStatus::Ok,
            "fail_point requires a failure status"
        );
        let keep = self.closed_lanes();
        self.name_ids.truncate(keep);
        self.latency_s.truncate(keep);
        self.energy_j.truncate(keep);
        self.area_mm2.truncate(keep);
        self.accuracy.truncate(keep);
        self.messages
            .push((self.status.len() as u32, message.into()));
        self.offsets.push(keep as u32);
        self.status.push(status);
    }

    /// Status of closed point `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.points()`.
    pub fn point_status(&self, p: usize) -> PointStatus {
        self.status[p]
    }

    /// Failure message of closed point `p`, if it failed.
    pub fn point_message(&self, p: usize) -> Option<&str> {
        let i = self
            .messages
            .binary_search_by_key(&(p as u32), |&(pt, _)| pt)
            .ok()?;
        Some(&self.messages[i].1)
    }

    /// Lane index range of closed point `p` into the column slices.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.points()`.
    pub fn lane_range(&self, p: usize) -> core::ops::Range<usize> {
        let lo = if p == 0 {
            0
        } else {
            self.offsets[p - 1] as usize
        };
        lo..self.offsets[p] as usize
    }

    /// Per-lane interned name ids.
    pub fn name_ids(&self) -> &[u32] {
        &self.name_ids
    }

    /// Name of lane `i`.
    pub fn lane_name(&self, i: usize) -> &str {
        self.name(self.name_ids[i])
    }

    /// Per-lane latency column (seconds).
    pub fn latency_s(&self) -> &[f64] {
        &self.latency_s
    }

    /// Per-lane energy column (joules).
    pub fn energy_j(&self) -> &[f64] {
        &self.energy_j
    }

    /// Per-lane area column (mm²).
    pub fn area_mm2(&self) -> &[f64] {
        &self.area_mm2
    }

    /// Per-lane accuracy column (fraction).
    pub fn accuracy(&self) -> &[f64] {
        &self.accuracy
    }

    /// Order-sensitive FNV-1a fold over the whole batch: for each closed
    /// point in order, either the bit patterns of every lane's
    /// `[latency, energy, area, accuracy]` or — for failed points — one
    /// `FNV_PRIME` marker. Two batches agree iff they hold the same
    /// values with the same point/lane structure.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut fold = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for p in 0..self.points() {
            if self.status[p] == PointStatus::Ok {
                for i in self.lane_range(p) {
                    fold(self.latency_s[i].to_bits());
                    fold(self.energy_j[i].to_bits());
                    fold(self.area_mm2[i].to_bits());
                    fold(self.accuracy[i].to_bits());
                }
            } else {
                fold(FNV_PRIME);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> CandidateBatch {
        let mut b = CandidateBatch::new();
        let gpu = b.intern("gpu");
        let cam = b.intern("cam");
        b.push_lane(gpu, 1.0, 2.0, 3.0, 0.9);
        b.push_lane(cam, 4.0, 5.0, 6.0, 0.8);
        b.close_point();
        b.fail_point(PointStatus::Error, "sense margin");
        b.push_lane(gpu, 7.0, 8.0, 9.0, 0.7);
        b.close_point();
        b
    }

    #[test]
    fn push_close_protocol_builds_csr() {
        let b = filled();
        assert_eq!(b.points(), 3);
        assert_eq!(b.lanes(), 3);
        assert_eq!(b.lane_range(0), 0..2);
        assert_eq!(b.lane_range(1), 2..2);
        assert_eq!(b.lane_range(2), 2..3);
        assert_eq!(b.point_status(1), PointStatus::Error);
        assert_eq!(b.point_message(1), Some("sense margin"));
        assert_eq!(b.point_message(0), None);
        assert_eq!(b.lane_name(0), "gpu");
        assert_eq!(b.lane_name(1), "cam");
        assert_eq!(b.lane_name(2), "gpu");
        assert_eq!(b.latency_s()[2], 7.0);
    }

    #[test]
    fn fail_point_discards_open_lanes() {
        let mut b = CandidateBatch::new();
        let id = b.intern("x");
        b.push_lane(id, 1.0, 1.0, 1.0, 1.0);
        b.push_lane(id, 2.0, 2.0, 2.0, 2.0);
        assert_eq!(b.open_lanes(), 2);
        b.fail_point(PointStatus::Panicked, "boom");
        assert_eq!(b.points(), 1);
        assert_eq!(b.lanes(), 0);
        assert_eq!(b.open_lanes(), 0);
        assert_eq!(b.point_message(0), Some("boom"));
    }

    #[test]
    fn checksum_distinguishes_failure_from_empty_ok() {
        let mut ok = CandidateBatch::new();
        ok.close_point();
        let mut failed = CandidateBatch::new();
        failed.fail_point(PointStatus::Error, "e");
        assert_ne!(ok.checksum(), failed.checksum());
    }
}
