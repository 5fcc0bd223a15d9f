//! Users, roles and sessions.
//!
//! Chronos Control "comes with an advanced session and role-based user
//! management to support the deployment in a multi-user environment"
//! (paper §2.2). Access permissions are handled at the level of projects
//! (§2.1): every member of a project sees all of its experiments,
//! evaluations and results.

use chronos_api::codec;
use chronos_json::{obj, Value};
use chronos_util::encode::{hex_encode, sha256};
use chronos_util::{Clock, Id};

use parking_lot::Mutex;

use crate::error::{CoreError, CoreResult};

/// Global roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Full control: manage users, systems, deployments.
    Admin,
    /// Create projects/experiments, run evaluations.
    Member,
    /// Read-only access to projects they are a member of.
    Viewer,
}

impl Role {
    /// The lowercase role name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Role::Admin => "admin",
            Role::Member => "member",
            Role::Viewer => "viewer",
        }
    }

    /// Parses the lowercase role name.
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "admin" => Some(Role::Admin),
            "member" => Some(Role::Member),
            "viewer" => Some(Role::Viewer),
            _ => None,
        }
    }

    /// Whether this role may mutate (create/abort/reschedule...).
    pub fn can_write(&self) -> bool {
        matches!(self, Role::Admin | Role::Member)
    }

    /// Whether this role may administer systems, deployments and users.
    pub fn can_admin(&self) -> bool {
        matches!(self, Role::Admin)
    }
}

/// A user account.
#[derive(Debug, Clone, PartialEq)]
pub struct User {
    /// Unique id.
    pub id: Id,
    /// Unique login name.
    pub username: String,
    /// Salted, iterated SHA-256 password hash (`salt$hexdigest`).
    pub password_hash: String,
    /// Global role.
    pub role: Role,
    /// Creation time.
    pub created_at: u64,
}

impl User {
    /// Creates a user with a freshly salted password hash.
    pub fn new(username: &str, password: &str, role: Role, now: u64) -> User {
        let salt = Id::generate().to_base32();
        User {
            id: Id::generate(),
            username: username.to_string(),
            password_hash: hash_password(password, &salt),
            role,
            created_at: now,
        }
    }

    /// Verifies a password attempt.
    pub fn verify_password(&self, attempt: &str) -> bool {
        let Some((salt, _)) = self.password_hash.split_once('$') else {
            return false;
        };
        // Constant-time-ish comparison over fixed-length hex digests.
        let expected = hash_password(attempt, salt);
        let (a, b) = (expected.as_bytes(), self.password_hash.as_bytes());
        a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
    }

    /// JSON shape (includes the hash — used by the store, redacted by the
    /// API layer).
    pub fn to_json(&self) -> Value {
        obj! {
            "id" => self.id.to_base32(),
            "username" => self.username.as_str(),
            "password_hash" => self.password_hash.as_str(),
            "role" => self.role.as_str(),
            "created_at" => self.created_at,
        }
    }

    /// The served (wire) view of a user — the password hash never leaves
    /// the control plane.
    pub fn to_public_json(&self) -> Value {
        use chronos_api::WireEncode;
        chronos_api::v1::UserPublic {
            id: self.id,
            username: self.username.clone(),
            role: self.role.as_str().to_string(),
            created_at: self.created_at,
        }
        .to_value()
    }

    /// Parses [`User::to_json`] output.
    pub fn from_json(value: &Value) -> CoreResult<User> {
        Ok(User {
            id: codec::req_id(value, "id")?,
            username: codec::req_str(value, "username")?,
            password_hash: codec::str_or(value, "password_hash", ""),
            role: codec::str_ref(value, "role")
                .and_then(Role::parse)
                .ok_or_else(|| CoreError::Invalid("user needs a valid role".into()))?,
            created_at: codec::lenient_u64(value, "created_at").unwrap_or(0),
        })
    }
}

/// Salted, iterated SHA-256 (1000 rounds), rendered as `salt$hex`.
pub fn hash_password(password: &str, salt: &str) -> String {
    let mut digest = sha256(format!("{salt}:{password}").as_bytes());
    for _ in 0..999 {
        digest = sha256(&digest);
    }
    format!("{salt}${}", hex_encode(&digest))
}

/// Default session lifetime: 12 hours.
pub const SESSION_TTL_MILLIS: u64 = 12 * 60 * 60 * 1000;

/// Active login sessions (token → user), with expiry.
pub struct SessionManager {
    sessions: Mutex<Vec<(String, Id, u64)>>,
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionManager {
    /// Creates an empty session table.
    pub fn new() -> Self {
        SessionManager { sessions: Mutex::new(Vec::new()) }
    }

    /// Opens a session for `user_id`; returns the bearer token.
    pub fn create(&self, user_id: Id, clock: &dyn Clock) -> String {
        let token = format!("{}{}", Id::generate().to_base32(), Id::generate().to_base32());
        let expires = clock.now_millis() + SESSION_TTL_MILLIS;
        self.sessions.lock().push((token.clone(), user_id, expires));
        token
    }

    /// Resolves a token to a user id if the session is live.
    pub fn resolve(&self, token: &str, clock: &dyn Clock) -> Option<Id> {
        let now = clock.now_millis();
        let mut sessions = self.sessions.lock();
        sessions.retain(|(_, _, expires)| *expires > now);
        sessions.iter().find(|(t, _, _)| t == token).map(|(_, id, _)| *id)
    }

    /// Terminates a session; returns whether it existed.
    pub fn revoke(&self, token: &str) -> bool {
        let mut sessions = self.sessions.lock();
        let before = sessions.len();
        sessions.retain(|(t, _, _)| t != token);
        sessions.len() != before
    }

    /// Number of live sessions (expired ones may linger until next resolve).
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// True when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.sessions.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_util::MockClock;

    #[test]
    fn password_verification() {
        let user = User::new("ada", "s3cret", Role::Member, 0);
        assert!(user.verify_password("s3cret"));
        assert!(!user.verify_password("S3cret"));
        assert!(!user.verify_password(""));
    }

    #[test]
    fn hashes_are_salted() {
        let a = User::new("ada", "same", Role::Member, 0);
        let b = User::new("bob", "same", Role::Member, 0);
        assert_ne!(a.password_hash, b.password_hash);
    }

    #[test]
    fn hash_is_deterministic_given_salt() {
        assert_eq!(hash_password("pw", "salt1"), hash_password("pw", "salt1"));
        assert_ne!(hash_password("pw", "salt1"), hash_password("pw", "salt2"));
    }

    #[test]
    fn role_permissions() {
        assert!(Role::Admin.can_write() && Role::Admin.can_admin());
        assert!(Role::Member.can_write() && !Role::Member.can_admin());
        assert!(!Role::Viewer.can_write() && !Role::Viewer.can_admin());
    }

    #[test]
    fn role_name_roundtrip() {
        for r in [Role::Admin, Role::Member, Role::Viewer] {
            assert_eq!(Role::parse(r.as_str()), Some(r));
        }
        assert_eq!(Role::parse("root"), None);
    }

    #[test]
    fn user_json_roundtrip() {
        let user = User::new("ada", "pw", Role::Admin, 42);
        let parsed = User::from_json(&user.to_json()).unwrap();
        assert_eq!(parsed, user);
        assert!(parsed.verify_password("pw"), "hash must survive the roundtrip");
    }

    #[test]
    fn sessions_resolve_and_expire() {
        let clock = MockClock::new(1_000);
        let sessions = SessionManager::new();
        let user = Id::generate();
        let token = sessions.create(user, &clock);
        assert_eq!(sessions.resolve(&token, &clock), Some(user));
        assert_eq!(sessions.resolve("bogus", &clock), None);
        clock.advance_millis(SESSION_TTL_MILLIS + 1);
        assert_eq!(sessions.resolve(&token, &clock), None, "session must expire");
    }

    #[test]
    fn sessions_revoke() {
        let clock = MockClock::new(0);
        let sessions = SessionManager::new();
        let token = sessions.create(Id::generate(), &clock);
        assert!(sessions.revoke(&token));
        assert!(!sessions.revoke(&token));
        assert_eq!(sessions.resolve(&token, &clock), None);
    }

    #[test]
    fn tokens_are_unique() {
        let clock = MockClock::new(0);
        let sessions = SessionManager::new();
        let a = sessions.create(Id::generate(), &clock);
        let b = sessions.create(Id::generate(), &clock);
        assert_ne!(a, b);
        assert_eq!(sessions.len(), 2);
    }
}
