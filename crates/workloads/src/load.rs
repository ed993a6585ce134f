//! Load points: the x-axes of Fig. 3, 4 and 5.

/// A single load point of an experiment sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Load as a percentage of the cluster's total map slots (§3.2).
    pub percent: f64,
}

impl LoadPoint {
    /// Creates a load point.
    pub fn new(percent: f64) -> Self {
        LoadPoint { percent }
    }
}

impl std::fmt::Display for LoadPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0}%", self.percent)
    }
}

/// The load sweep of the Fig. 3 locality simulations: 25% to 100%.
pub fn fig3_loads() -> Vec<LoadPoint> {
    [25.0, 50.0, 75.0, 100.0]
        .into_iter()
        .map(LoadPoint::new)
        .collect()
}

/// The load points reported for set-up 1 in Fig. 4 (50%, 75%, 100%).
pub fn setup1_loads() -> Vec<LoadPoint> {
    [50.0, 75.0, 100.0]
        .into_iter()
        .map(LoadPoint::new)
        .collect()
}

/// The load points reported for set-up 2 in Fig. 5 (25% to 100%).
pub fn setup2_loads() -> Vec<LoadPoint> {
    [25.0, 50.0, 75.0, 100.0]
        .into_iter()
        .map(LoadPoint::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper_axes() {
        assert_eq!(fig3_loads().len(), 4);
        assert_eq!(setup1_loads().len(), 3);
        assert_eq!(setup2_loads().len(), 4);
        assert_eq!(setup1_loads()[0].percent, 50.0);
        assert_eq!(setup2_loads()[0].percent, 25.0);
        assert_eq!(fig3_loads().last().unwrap().percent, 100.0);
        assert_eq!(LoadPoint::new(62.5).to_string(), "62%");
    }
}
