#ifndef ORION_LOCK_COMPOSITE_LOCKING_H_
#define ORION_LOCK_COMPOSITE_LOCKING_H_

#include <chrono>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "lock/lock_manager.h"
#include "object/object_manager.h"

namespace orion {

/// A component class of a composite class hierarchy, with the reference
/// kind that reaches it (shared references demand the OS lock modes).
struct ComponentClassLock {
  ClassId cls = kInvalidClass;
  bool shared = false;

  friend bool operator==(const ComponentClassLock&,
                         const ComponentClassLock&) = default;
};

/// The §7 composite-object locking protocols.
///
/// Extended protocol (`LockComposite`):
///   1. lock the root's class in IS (read) / IX (write);
///   2. lock the root instance in S / X;
///   3. lock every component class of the composite class hierarchy in
///      ISO / IXO when reached through exclusive composite references, or
///      ISOS / IXOS when reached through shared ones.
/// Root instance locks arbitrate between transactions touching different
/// composite objects of the same hierarchy; the component-class locks fence
/// off direct instance access (Figure 8 semantics).
///
/// `RootLock` implements the [GARZ88] alternative: when a component is
/// accessed directly, lock the roots of every composite object containing
/// it.  "The algorithm cannot be used for shared composite references" —
/// with sharing it locks *all* roots of the component, implicitly freezing
/// entire composite objects the transaction never touches (the Figure 5
/// anomaly, demonstrated in tests and bench ABL-4).
class CompositeLockProtocol {
 public:
  CompositeLockProtocol(SchemaManager* schema, ObjectManager* objects,
                        LockManager* locks)
      : schema_(schema), objects_(objects), locks_(locks) {}

  /// Locks the composite object rooted at `root` for reading or writing
  /// using the extended protocol.  Locks already held by `txn` are reused.
  /// Returns the component classes locked in step 3
  /// (ComponentClassClosure of the root's class).
  Result<std::vector<ComponentClassLock>> LockComposite(
      TxnId txn, Uid root, bool write,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0));

  /// Classical granularity locking for direct access to one instance:
  /// class IS/IX + instance S/X.
  Status LockInstance(TxnId txn, Uid object, bool write,
                      std::chrono::milliseconds timeout =
                          std::chrono::milliseconds(0));

  /// The [GARZ88] root-locking algorithm: S/X on the roots of every
  /// composite object containing `object` (and on `object` itself), with
  /// intention locks on the root classes.
  Status RootLock(TxnId txn, Uid object, bool write,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(0));

  /// The component classes of the composite class hierarchy rooted at
  /// `root_class`, each tagged shared/exclusive.  A class reachable through
  /// both kinds is tagged shared (the stricter modes).  Deterministic
  /// order (by class id).
  Result<std::vector<ComponentClassLock>> ComponentClassClosure(
      ClassId root_class) const;

  /// Roots of the composite objects containing `object`: ancestors with no
  /// composite parents (or the object itself when unattached).
  Result<std::vector<Uid>> RootsOf(Uid object) const;

 private:
  SchemaManager* schema_;
  ObjectManager* objects_;
  LockManager* locks_;
};

}  // namespace orion

#endif  // ORION_LOCK_COMPOSITE_LOCKING_H_
