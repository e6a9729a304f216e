//! The `dprep` commands as a library: flag parsing ([`args`]), the facts
//! file ([`facts`]), and one module per subcommand ([`commands`]).
//!
//! The `dprep` binary dispatches argv here. The integration tests call the
//! same code: [`commands::serving_setup`] assembles every task command's
//! serving stack and durability, and [`commands::serve::dataset_handler`]
//! is the daemon's job handler.

pub mod args;
pub mod commands;
pub mod facts;
