//! # household — population and behavior models
//!
//! Everything *human* about the reproduction lives here: where the homes
//! are ([`country`], Table 1), how people power their routers and how often
//! their ISPs fail ([`availability`], §4), what devices they own and which
//! one dominates usage ([`devices`], §5/§6.3), when they are active
//! ([`diurnal`], Fig 13), which services they talk to ([`domains`], §6.4),
//! and how crowded their radio neighborhood is ([`neighborhood`], Fig 11).
//! [`home`] assembles these into complete households and instantiates the
//! 126-home deployment.
//!
//! Every model is calibrated to the paper's published marginals and is
//! deterministic given a seed. The models generate *behavior*; the
//! measured numbers in the figures come from the firmware instrument
//! observing that behavior, never from these models directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod country;
pub mod devices;
pub mod diurnal;
pub mod domains;
pub mod home;
pub mod interval;
pub mod neighborhood;

pub use availability::{AvailabilityModel, PowerMode};
pub use country::{Country, Region};
pub use devices::{Attachment, Device, DeviceType, VendorClass};
pub use diurnal::DiurnalModel;
pub use domains::{Category, DomainUniverse, HomeTaste};
pub use home::{
    build_deployment, build_deployment_scaled, build_deployment_with, HomeConfig, HomeId, Quirk,
};
pub use interval::Interval;
