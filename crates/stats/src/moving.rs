//! Moving averages.
//!
//! Fig. 2 of the paper overlays a moving average on raw monthly failure
//! rates; [`MovingAverage`] reproduces that smoothing.

/// Fixed-window moving average over a sequence.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    buf: std::collections::VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self { window, buf: std::collections::VecDeque::with_capacity(window), sum: 0.0 }
    }

    /// Window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pushes a value and returns the current average over the (possibly
    /// not yet full) window.
    pub fn push(&mut self, x: f64) -> f64 {
        self.buf.push_back(x);
        self.sum += x;
        if self.buf.len() > self.window {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
            }
        }
        self.sum / self.buf.len() as f64
    }

    /// Current average; `None` if nothing has been pushed.
    pub fn current(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum / self.buf.len() as f64)
        }
    }

    /// Smooths an entire series, returning one output per input (the
    /// average of the trailing window at each position).
    pub fn smooth(window: usize, series: &[f64]) -> Vec<f64> {
        let mut ma = MovingAverage::new(window);
        series.iter().map(|&x| ma.push(x)).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_partial_window() {
        let mut ma = MovingAverage::new(3);
        assert_eq!(ma.push(3.0), 3.0);
        assert_eq!(ma.push(5.0), 4.0);
        assert_eq!(ma.push(7.0), 5.0);
        assert_eq!(ma.push(9.0), 7.0); // window slides past 3.0
    }

    #[test]
    fn moving_average_smooth_length_preserved() {
        let xs = vec![1.0; 10];
        let s = MovingAverage::smooth(4, &xs);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn moving_average_zero_window_panics() {
        MovingAverage::new(0);
    }
}
