//! The one place a metric is declared: a key enum whose variants carry
//! their exported names.

/// Declares a metric key enum: each variant is one metric, written once
/// with the name it is exported under. Declaration order is export order
/// and `key as usize` indexes a `[_; COUNT]` array of cells, so adding a
/// metric is one variant here plus the line that bumps it.
///
/// ```
/// mc_telemetry::metric_keys! {
///     /// Two counters.
///     pub enum Key {
///         /// Reads seen.
///         Reads => "reads",
///         /// Writes seen.
///         Writes => "writes",
///     }
/// }
/// assert_eq!(Key::COUNT, 2);
/// assert_eq!(Key::ALL[Key::Writes as usize].name(), "writes");
/// ```
#[macro_export]
macro_rules! metric_keys {
    (
        $(#[$meta:meta])*
        $vis:vis enum $key:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $key {
            $($(#[$vmeta])* $variant,)+
        }

        impl $key {
            /// Every key, in declaration (and export) order.
            pub const ALL: &'static [$key] = &[$($key::$variant,)+];

            /// Number of keys: the length of an array indexed by
            /// `key as usize`.
            pub const COUNT: usize = Self::ALL.len();

            /// The name this key is exported under.
            pub const fn name(self) -> &'static str {
                match self {
                    $($key::$variant => $name,)+
                }
            }
        }
    };
}
