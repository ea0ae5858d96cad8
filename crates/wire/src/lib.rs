//! `promises-wire` — the SOAP-style Promise protocol (paper §6) over an
//! in-memory service bus.
//!
//! The paper maps its protocol onto SOAP headers; this crate substitutes a
//! compact XML subset ([`xml`]) and an in-process bus ([`InMemoryBus`])
//! with latency and fault injection for the HTTP transport. The protocol
//! elements — `<promise-request>`, `<promise-response>`, `<release>`,
//! `<environment>`, and action bodies — match §6 element for element, and
//! every message is round-tripped through the codec so the wire format is
//! exercised on every call.
//!
//! [`PromiseGateway`] is the Figure 2 intermediary: it splits each message
//! into Promise and Action parts, runs promise requests atomically, and
//! executes the action under its (possibly just-granted) environment.

#![warn(missing_docs)]

mod bus;
mod client;
mod codec;
mod envelope;
mod gateway;
pub mod xml;

pub use bus::{BusError, BusStats, Fulfiller, InMemoryBus, NetworkProfile, Pending, Service};
pub use client::{RetryPolicy, RetryStats, RetryingClient};
pub use codec::{decode, encode, CodecError};
pub use envelope::{
    ActionRequest, ActionResponse, EnvEntry, EnvRef, Envelope, EnvironmentHeader,
    PromiseRequestHeader, PromiseResponseHeader, PromiseResult, ResolutionHeader, ResolutionOp,
    ResolutionResponse, ResolveRef, TraceHeader,
};
pub use gateway::{ActionHandler, PromiseGateway};
