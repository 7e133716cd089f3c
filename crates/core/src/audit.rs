//! Per-cycle invariant auditing for port-arbitration models.
//!
//! Each [`PortModel`](crate::PortModel) publishes its structural legality
//! rules through [`PortModel::audit_round`](crate::PortModel::audit_round):
//! given one cycle's age-ordered offered view and the grants the model
//! produced, the audit recomputes — independently of the arbitration code
//! path — whether that grant set is legal. The checks are pure observers:
//! they never mutate model state and never change what is granted, so an
//! audited run is bit-identical to an unaudited one.
//!
//! The generic checks here apply to every model; model-specific rules
//! (one grant per bank, same-line combining bounds, store-broadcast
//! exclusivity) live with the models themselves.

use crate::request::{MemRequest, Offered};

/// One invariant violation observed during a single arbitration round.
///
/// # Examples
///
/// ```
/// use hbdc_core::audit::Violation;
///
/// let v = Violation::new("banked-double-grant", "bank 3 granted twice");
/// assert_eq!(v.rule, "banked-double-grant");
/// assert!(v.to_string().contains("bank 3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable rule identifier, e.g. `"lbic-cross-line"`.
    pub rule: &'static str,
    /// Human-readable description of the specific violation.
    pub detail: String,
}

impl Violation {
    /// Creates a violation record.
    pub fn new(rule: &'static str, detail: impl Into<String>) -> Self {
        Self {
            rule,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Checks the invariants common to every port model: every grant is a
/// request of the `offered` view, grants are in strict age (id) order,
/// and they number no more than `peak` (the model's peak references per
/// cycle). Violations are appended to `out`.
pub fn check_generic(
    peak: usize,
    offered: Offered<'_>,
    granted: &[MemRequest],
    out: &mut Vec<Violation>,
) {
    if granted.len() > peak {
        out.push(Violation::new(
            "grant-peak-exceeded",
            format!("{} grants exceed the model peak of {peak}", granted.len()),
        ));
    }
    for (k, g) in granted.iter().enumerate() {
        let is_offered = offered
            .ids()
            .binary_search(&g.id)
            .is_ok_and(|pos| offered.get(pos) == *g);
        if !is_offered {
            out.push(Violation::new(
                "grant-not-offered",
                format!("granted {g:?}, which is not in the offered set"),
            ));
            continue;
        }
        if k > 0 && granted[k - 1].id >= g.id {
            out.push(Violation::new(
                "grant-order",
                format!(
                    "grant ids not strictly increasing: {} then {}",
                    granted[k - 1].id,
                    g.id
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OfferedBuf;

    fn loads(n: usize) -> Vec<MemRequest> {
        (0..n)
            .map(|i| MemRequest::load(i as u64, i as u64 * 8))
            .collect()
    }

    fn check(peak: usize, ready: &[MemRequest], granted: &[usize]) -> Vec<Violation> {
        let granted: Vec<MemRequest> = granted
            .iter()
            .map(|&i| {
                ready
                    .get(i)
                    .copied()
                    .unwrap_or(MemRequest::load(i as u64, 0))
            })
            .collect();
        let mut out = Vec::new();
        check_generic(peak, OfferedBuf::new(ready).view(), &granted, &mut out);
        out
    }

    #[test]
    fn clean_round_has_no_findings() {
        assert!(check(4, &loads(3), &[0, 1, 2]).is_empty());
    }

    #[test]
    fn peak_overflow_detected() {
        let out = check(2, &loads(3), &[0, 1, 2]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "grant-peak-exceeded");
    }

    #[test]
    fn unoffered_grant_detected() {
        // Id 5 was never offered; id 1 with a different address is not
        // the offered request 1 either.
        let out = check(4, &loads(2), &[0, 5]);
        assert!(out.iter().any(|v| v.rule == "grant-not-offered"));
        let mut out = Vec::new();
        check_generic(
            4,
            Offered::new(&[0, 1], &[0, 8], &[false, false]),
            &[MemRequest::load(0, 0), MemRequest::load(1, 0x40)],
            &mut out,
        );
        assert!(out.iter().any(|v| v.rule == "grant-not-offered"));
    }

    #[test]
    fn duplicate_and_misordered_grants_detected() {
        let out = check(4, &loads(3), &[1, 1]);
        assert!(out.iter().any(|v| v.rule == "grant-order"));
        let out = check(4, &loads(3), &[2, 0]);
        assert!(out.iter().any(|v| v.rule == "grant-order"));
    }
}
