//! The v1 wire contract: one DTO per request/response body.
//!
//! Encoders fix the canonical key order (maps serialize in insertion
//! order); decoders come in two strictness levels. **Request** DTOs are
//! strict: missing or ill-typed required fields are typed 400s. **Entity**
//! (response) DTOs are lenient, mirroring the tolerant reads clients and
//! the store have always performed.

mod agent;
mod analytics;
mod cluster;
mod entities;
mod params;
mod requests;

pub use agent::{
    write_upload_frame, ClaimRequest, ClaimedJob, FailRequest, HeartbeatAck, HeartbeatRequest,
    UploadResultRequest,
};
pub use analytics::{
    ExperimentRegressionFlag, RegressionChangePointDto, RegressionRunDto, RegressionsResponse,
};
pub use cluster::{ClusterStatusDto, ReplicateAck, ReplicateRequest, VoteRequest, VoteResponse};
pub use entities::{
    rung_sizes, AdaptiveConfig, ChartSpec, DeploymentDto, EvaluationDto, EvaluationStatusDto,
    ExperimentDto, FrontierDto, JobBudget, JobDto, JobResultDto, JobSourceState, ProjectDto,
    Strategy, SystemDto, TimelineEventDto, UserPublic,
};
pub use params::{Assignment, ParamAssignments, ParamDef, ParamType};
pub use requests::{
    AddProjectMemberRequest, CreateDeploymentRequest, CreateExperimentRequest,
    CreateProjectRequest, CreateUserRequest, LoginRequest, LoginResponse, LogoutResponse,
    SetDeploymentActiveRequest, StatsResponse, TriggerBuildRequest, TriggerBuildResponse,
};
