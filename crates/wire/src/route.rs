//! Source routes.
//!
//! §2.1: "The CABs use source routing to send a message through the
//! network. The HUB command set includes support for multi-hop
//! connections." A route is the ordered list of HUB output ports the
//! frame must take; each HUB consumes (advances past) one byte. The
//! route travels in a small prefix ahead of the datalink header — see
//! [`crate::datalink::Frame`] for the on-wire layout.

/// Maximum number of hops a route may contain. Two HUBs sufficed for
/// the paper's 26-host system; a multi-stage folded Clos of 16-port
/// HUBs has diameter ≤ 2·stages, so 64 covers any fabric we can build
/// (a k=16 fat-tree needs 6) while keeping the prefix bounded. The
/// on-wire `route_len` byte could carry up to 255.
pub const MAX_HOPS: usize = 64;

/// Why a route could not be built. Routes normally come from the
/// topology layer, which surfaces this instead of aborting the sim:
/// an operator can describe a fabric (a 70-HUB chain, say) whose
/// diameter exceeds the route prefix, and that is input, not a
/// programming error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The path needs more hops than the route prefix can carry.
    TooLong { len: usize, max: usize },
    /// No path exists between the endpoints.
    Unreachable,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::TooLong { len, max } => {
                write!(f, "route needs {len} hops but the prefix holds at most {max}")
            }
            RouteError::Unreachable => write!(f, "no path between endpoints"),
        }
    }
}

impl std::error::Error for RouteError {}

/// An ordered list of HUB output ports (0..16 for the 16×16 crossbar).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Route {
    hops: Vec<u8>,
}

impl Route {
    /// An empty route (frame is already at its destination port — only
    /// meaningful in loopback tests).
    pub fn empty() -> Self {
        Route { hops: Vec::new() }
    }

    /// Build a route from output-port hops, rejecting routes longer
    /// than [`MAX_HOPS`].
    pub fn try_new(hops: impl Into<Vec<u8>>) -> Result<Self, RouteError> {
        let hops = hops.into();
        if hops.len() > MAX_HOPS {
            return Err(RouteError::TooLong { len: hops.len(), max: MAX_HOPS });
        }
        Ok(Route { hops })
    }

    /// Build a route from output-port hops. Panics if the route is longer
    /// than [`MAX_HOPS`] — use [`Route::try_new`] for computed routes.
    pub fn new(hops: impl Into<Vec<u8>>) -> Self {
        Route::try_new(hops).expect("route exceeds MAX_HOPS")
    }

    pub fn hops(&self) -> &[u8] {
        &self.hops
    }

    pub fn len(&self) -> usize {
        self.hops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Append a hop, rejecting growth past [`MAX_HOPS`].
    fn try_push(&mut self, port: u8) -> Result<(), RouteError> {
        if self.hops.len() >= MAX_HOPS {
            return Err(RouteError::TooLong { len: self.hops.len() + 1, max: MAX_HOPS });
        }
        self.hops.push(port);
        Ok(())
    }

    /// Append a hop. Panics past [`MAX_HOPS`].
    pub fn push(&mut self, port: u8) {
        self.try_push(port).expect("route exceeds MAX_HOPS");
    }
}

impl From<&[u8]> for Route {
    fn from(hops: &[u8]) -> Self {
        Route::new(hops.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let mut r = Route::empty();
        assert!(r.is_empty());
        r.push(3);
        r.push(7);
        assert_eq!(r.hops(), &[3, 7]);
        assert_eq!(r.len(), 2);
        assert_eq!(Route::from(&[1u8, 2][..]).hops(), &[1, 2]);
    }

    #[test]
    fn overlong_route_is_a_typed_error() {
        let err = Route::try_new(vec![0u8; MAX_HOPS + 1]).unwrap_err();
        assert_eq!(err, RouteError::TooLong { len: MAX_HOPS + 1, max: MAX_HOPS });
        let mut r = Route::new(vec![0u8; MAX_HOPS]);
        assert_eq!(r.try_push(0), Err(RouteError::TooLong { len: MAX_HOPS + 1, max: MAX_HOPS }));
        assert_eq!(r.len(), MAX_HOPS, "failed push must not grow the route");
        // the Display form names both numbers for the operator
        assert!(err.to_string().contains("65"), "{err}");
    }

    #[test]
    #[should_panic(expected = "MAX_HOPS")]
    fn overlong_route_panics_via_infallible_constructor() {
        Route::new(vec![0u8; MAX_HOPS + 1]);
    }

    #[test]
    fn max_hops_fits_the_wire_prefix() {
        // the on-wire route_len field is a single byte
        assert!(MAX_HOPS <= u8::MAX as usize);
    }
}
