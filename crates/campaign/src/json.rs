//! The campaign's JSON document model is the workspace's one codec,
//! [`rtl_obs::json`], re-exported here for code outside the workspace.

pub use rtl_obs::json::Json;
