//! Game profiles.
//!
//! §2.1.1 ports three open-source desktop games through GamingAnywhere:
//! Battle Tanks, Pingus, and Flare (the default). §3.3.1 observes that
//! server-side game logic + rendering contributes ≈70 ms (together with
//! encode), runs essentially single-threaded, and that *Pingus*
//! "experiences slightly higher delay and jitter for its more complex game
//! logic".

/// One game's server-side cost profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Game {
    /// Game title.
    pub name: &'static str,
    /// Mean game-logic + software-rendering time per interaction, ms.
    pub logic_render_ms: f64,
    /// Relative jitter of that time.
    pub jitter_cv: f64,
}

impl Game {
    /// Flare (the default game in the paper).
    pub const FLARE: Game = Game {
        name: "Flare",
        logic_render_ms: 62.0,
        jitter_cv: 0.10,
    };
    /// Battle Tanks.
    pub const BATTLE_TANKS: Game = Game {
        name: "Battle Tanks",
        logic_render_ms: 60.0,
        jitter_cv: 0.11,
    };
    /// Pingus — heavier game logic, more jitter (3.3.1).
    pub const PINGUS: Game = Game {
        name: "Pingus",
        logic_render_ms: 72.0,
        jitter_cv: 0.18,
    };

    /// Fig. 6(c)'s order.
    pub const ALL: [Game; 3] = [Game::BATTLE_TANKS, Game::PINGUS, Game::FLARE];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingus_heaviest_and_jitteriest() {
        for g in [Game::FLARE, Game::BATTLE_TANKS] {
            assert!(Game::PINGUS.logic_render_ms > g.logic_render_ms);
            assert!(Game::PINGUS.jitter_cv > g.jitter_cv);
        }
    }

    #[test]
    fn server_side_around_70ms_with_encode() {
        // §3.3.1: server side (logic + render + encode ≈8 ms) ≈ 70 ms.
        for g in Game::ALL {
            let with_encode = g.logic_render_ms + 8.0;
            assert!(
                (60.0..=85.0).contains(&with_encode),
                "{}: {with_encode}",
                g.name
            );
        }
    }
}
