#include "lock/composite_locking.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_set>

#include "query/traversal.h"

namespace orion {

Result<std::vector<ComponentClassLock>>
CompositeLockProtocol::ComponentClassClosure(ClassId root_class) const {
  if (schema_->GetClass(root_class) == nullptr) {
    return Status::NotFound("class id " + std::to_string(root_class));
  }
  // cls -> shared?  A class reached through both kinds is tagged shared.
  std::map<ClassId, bool> closure;
  std::deque<ClassId> frontier{root_class};
  std::unordered_set<ClassId> expanded;
  while (!frontier.empty()) {
    const ClassId cur = frontier.front();
    frontier.pop_front();
    if (!expanded.insert(cur).second) {
      continue;
    }
    auto attrs = schema_->ResolvedAttributes(cur);
    if (!attrs.ok()) {
      continue;
    }
    for (const AttributeSpec& spec : *attrs) {
      if (!spec.is_composite()) {
        continue;
      }
      auto domain = schema_->FindClass(spec.domain);
      if (!domain.ok()) {
        continue;  // primitive or unknown domain: no component class
      }
      const bool shared_edge = spec.is_shared_composite();
      auto [it, inserted] = closure.emplace(*domain, shared_edge);
      if (!inserted && shared_edge && !it->second) {
        it->second = true;  // upgrade to the stricter classification
      }
      frontier.push_back(*domain);
    }
  }
  std::vector<ComponentClassLock> out;
  for (const auto& [cls, shared] : closure) {
    if (cls != root_class) {
      out.push_back(ComponentClassLock{cls, shared});
    }
  }
  return out;
}

Result<std::vector<ComponentClassLock>> CompositeLockProtocol::LockComposite(
    TxnId txn, Uid root, bool write, std::chrono::milliseconds timeout) {
  const Object* root_obj = objects_->Peek(root);
  if (root_obj == nullptr) {
    return Status::NotFound("object " + root.ToString());
  }
  const ClassId root_class = root_obj->class_id();
  // 1. Intention lock on the root class object.
  ORION_RETURN_IF_ERROR(locks_->Acquire(
      txn, LockResource::Class(root_class),
      write ? LockMode::kIX : LockMode::kIS, timeout));
  // 2. S/X on the composite root instance.
  ORION_RETURN_IF_ERROR(locks_->Acquire(txn, LockResource::Instance(root),
                                        write ? LockMode::kX : LockMode::kS,
                                        timeout));
  // 3. O / OS modes on the component classes.
  ORION_ASSIGN_OR_RETURN(std::vector<ComponentClassLock> closure,
                         ComponentClassClosure(root_class));
  for (const ComponentClassLock& c : closure) {
    LockMode mode;
    if (c.shared) {
      mode = write ? LockMode::kIXOS : LockMode::kISOS;
    } else {
      mode = write ? LockMode::kIXO : LockMode::kISO;
    }
    ORION_RETURN_IF_ERROR(
        locks_->Acquire(txn, LockResource::Class(c.cls), mode, timeout));
  }
  return closure;
}

Status CompositeLockProtocol::LockInstance(TxnId txn, Uid object, bool write,
                                           std::chrono::milliseconds
                                               timeout) {
  const Object* obj = objects_->Peek(object);
  if (obj == nullptr) {
    return Status::NotFound("object " + object.ToString());
  }
  ORION_RETURN_IF_ERROR(locks_->Acquire(
      txn, LockResource::Class(obj->class_id()),
      write ? LockMode::kIX : LockMode::kIS, timeout));
  return locks_->Acquire(txn, LockResource::Instance(object),
                         write ? LockMode::kX : LockMode::kS, timeout);
}

Result<std::vector<Uid>> CompositeLockProtocol::RootsOf(Uid object) const {
  if (objects_->Peek(object) == nullptr) {
    return Status::NotFound("object " + object.ToString());
  }
  std::vector<Uid> roots;
  std::unordered_set<Uid> visited;
  std::deque<Uid> frontier{object};
  while (!frontier.empty()) {
    const Uid cur = frontier.front();
    frontier.pop_front();
    if (!visited.insert(cur).second) {
      continue;
    }
    auto parents = ParentsOf(*objects_, cur);
    if (!parents.ok() || parents->empty()) {
      roots.push_back(cur);
      continue;
    }
    for (Uid p : *parents) {
      frontier.push_back(p);
    }
  }
  std::sort(roots.begin(), roots.end());
  return roots;
}

Status CompositeLockProtocol::RootLock(TxnId txn, Uid object, bool write,
                                       std::chrono::milliseconds timeout) {
  ORION_ASSIGN_OR_RETURN(std::vector<Uid> roots, RootsOf(object));
  for (Uid root : roots) {
    const Object* root_obj = objects_->Peek(root);
    if (root_obj == nullptr) {
      continue;
    }
    ORION_RETURN_IF_ERROR(locks_->Acquire(
        txn, LockResource::Class(root_obj->class_id()),
        write ? LockMode::kIX : LockMode::kIS, timeout));
    ORION_RETURN_IF_ERROR(
        locks_->Acquire(txn, LockResource::Instance(root),
                        write ? LockMode::kX : LockMode::kS, timeout));
  }
  // The accessed component itself.
  if (std::find(roots.begin(), roots.end(), object) == roots.end()) {
    ORION_RETURN_IF_ERROR(
        locks_->Acquire(txn, LockResource::Instance(object),
                        write ? LockMode::kX : LockMode::kS, timeout));
  }
  return Status::Ok();
}

}  // namespace orion
