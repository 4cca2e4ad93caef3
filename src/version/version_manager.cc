#include "version/version_manager.h"

#include <algorithm>
#include <unordered_set>

namespace orion {

bool VersionManager::IsVersionableClass(ClassId cls) const {
  const ClassDef* def = schema_->GetClass(cls);
  return def != nullptr && def->versionable;
}

Result<VersionedHandle> VersionManager::MakeVersioned(
    ClassId cls, const std::vector<ParentBinding>& parents,
    const AttrValues& attrs) {
  // One atomically visible publication for the generic, the version, and
  // everything the bindings touch.
  RecordStore::Batch publish(records_);
  RecursiveLatchGuard g(mu_);
  if (!IsVersionableClass(cls)) {
    return Status::InvalidArgument("class is not versionable");
  }
  ORION_ASSIGN_OR_RETURN(Uid generic,
                         objects_->CreateRaw(cls, ObjectRole::kGeneric));
  ORION_ASSIGN_OR_RETURN(Uid version,
                         objects_->CreateRaw(cls, ObjectRole::kVersion));
  Object* v = objects_->Peek(version);
  v->set_generic(generic);
  objects_->MarkRecord(version);  // set_generic bypasses the manager
  generics_[generic] = GenericInfo{{version}, kNilUid};
  MarkGeneric(generic);

  auto abort = [&](const Status& status) -> Status {
    // Best-effort rollback of the half-built pair; the caller gets the
    // original failure either way.
    (void)objects_->DeleteSingle(version);
    (void)objects_->DeleteSingle(generic);  // also best-effort
    generics_.erase(generic);
    MarkGeneric(generic);
    return status;
  };

  // :init defaults for non-composite attributes, then explicit values
  // (through SetAttribute so each install is published).
  auto all_attrs = schema_->ResolvedAttributes(cls);
  if (all_attrs.ok()) {
    for (const AttributeSpec& spec : *all_attrs) {
      if (!spec.initial.is_null() && !spec.is_composite()) {
        // The attribute was just resolved from the schema and the version
        // just created, so the set cannot be rejected.
        (void)objects_->SetAttribute(version, spec.name, spec.initial);
      }
    }
  }
  for (const auto& [name, value] : attrs) {
    Status set = objects_->SetAttribute(version, name, value);
    if (!set.ok()) {
      return abort(set);
    }
  }
  // Static binding to the version instance; Topology Rule 3 for multiple
  // parents falls out of the sequential attach checks.
  for (const ParentBinding& pb : parents) {
    Status attach = objects_->MakeComponent(version, pb.parent, pb.attribute);
    if (!attach.ok()) {
      return abort(attach);
    }
  }
  return VersionedHandle{generic, version};
}

Result<Uid> VersionManager::Derive(Uid version) {
  RecordStore::Batch publish(records_);
  RecursiveLatchGuard g(mu_);
  Object* src = objects_->Peek(version);
  if (src == nullptr || !src->is_version()) {
    return Status::InvalidArgument("Derive requires a version instance");
  }
  const Uid generic = src->generic();
  auto info_it = generics_.find(generic);
  if (info_it == generics_.end()) {
    return Status::Internal("version instance without a registered generic");
  }
  const ClassId cls = src->class_id();
  ORION_ASSIGN_OR_RETURN(Uid derived,
                         objects_->CreateRaw(cls, ObjectRole::kVersion));
  Object* dst = objects_->Peek(derived);
  dst->set_generic(generic);
  dst->set_derived_from(version);
  objects_->MarkRecord(derived);  // version metadata bypasses the manager
  info_it->second.versions.push_back(derived);
  MarkGeneric(generic);

  auto abort = [&](const Status& status) -> Status {
    auto& versions = generics_[generic].versions;
    versions.erase(std::remove(versions.begin(), versions.end(), derived),
                   versions.end());
    MarkGeneric(generic);
    // Best-effort rollback of the half-derived version.
    (void)objects_->DeleteSingle(derived);
    return status;
  };

  ORION_ASSIGN_OR_RETURN(std::vector<AttributeSpec> attrs,
                         schema_->ResolvedAttributes(cls));
  // `src` may be stale w.r.t. deferred type changes; refresh first so the
  // copy sees current reference kinds.
  ORION_RETURN_IF_ERROR(objects_->CatchUp(src));

  for (const AttributeSpec& spec : attrs) {
    const Value& val = src->Get(spec.name);
    if (val.is_null()) {
      continue;
    }
    if (!spec.is_composite()) {
      // Weak references and primitive values are copied verbatim.
      (void)objects_->SetAttribute(derived, spec.name, val);
      continue;
    }
    // Figure 1 rebinding for composite references.
    auto rebind = [&](Uid target) -> Uid {
      const Object* t = objects_->Peek(target);
      if (t == nullptr) {
        return kNilUid;
      }
      if (t->is_version()) {
        // "The reference in the new copy is set to the generic instance g-d
        // of the referenced version instance.  However, if the reference is
        // a dependent composite reference, it is set to Nil."
        return spec.dependent ? kNilUid : t->generic();
      }
      if (t->is_generic()) {
        // CV-1X: any number of version instances of g-c may have the same
        // composite reference to g-d.
        return target;
      }
      // Non-versionable target: a second exclusive reference would violate
      // the Make-Component Rule, so it cannot be carried over.
      return spec.exclusive ? kNilUid : target;
    };
    Value copied;
    if (val.is_set()) {
      std::vector<Value> elems;
      std::unordered_set<Uid> dedup;
      for (const Value& e : val.set()) {
        if (!e.is_ref()) {
          elems.push_back(e);
          continue;
        }
        const Uid re = rebind(e.ref());
        if (re.valid() && dedup.insert(re).second) {
          elems.push_back(Value::Ref(re));
        }
      }
      if (elems.empty()) {
        continue;
      }
      copied = Value::Set(std::move(elems));
    } else if (val.is_ref()) {
      const Uid re = rebind(val.ref());
      if (!re.valid()) {
        continue;
      }
      copied = Value::Ref(re);
    } else {
      continue;
    }
    Status set = objects_->SetAttribute(derived, spec.name, std::move(copied));
    if (!set.ok()) {
      return abort(set);
    }
  }
  return derived;
}

Status VersionManager::DeleteVersionClosure(Uid version) {
  Object* v = objects_->Peek(version);
  if (v == nullptr || !v->is_version()) {
    return Status::InvalidArgument("not a version instance");
  }
  // CV-2X + CV-4X: "the deletion of a version instance causes a recursive
  // deletion of all version instances statically bound to it through
  // dependent references."  ObjectManager's closure implements exactly the
  // dependent-exclusive / last-dependent-shared conditions and never dooms
  // generic instances.
  ORION_ASSIGN_OR_RETURN(std::vector<Uid> doomed,
                         objects_->ComputeDeletionClosure(version));
  std::vector<Uid> affected_generics;
  for (Uid d : doomed) {
    Object* obj = objects_->Peek(d);
    if (obj != nullptr && obj->is_version()) {
      affected_generics.push_back(obj->generic());
    }
    ORION_RETURN_IF_ERROR(objects_->DeleteSingle(d));
  }
  // Reap generics that lost versions.
  std::unordered_set<Uid> seen;
  for (Uid g : affected_generics) {
    if (!seen.insert(g).second) {
      continue;
    }
    auto it = generics_.find(g);
    if (it == generics_.end()) {
      continue;
    }
    auto& versions = it->second.versions;
    versions.erase(std::remove_if(versions.begin(), versions.end(),
                                  [&](Uid u) { return !objects_->Exists(u); }),
                   versions.end());
    if (it->second.user_default.valid() &&
        !objects_->Exists(it->second.user_default)) {
      it->second.user_default = kNilUid;
    }
    MarkGeneric(g);
    // "If the last remaining version instance of a generic instance is
    // deleted, the generic instance is also deleted."
    if (versions.empty() && reap_suppressed_.count(g) == 0) {
      ORION_RETURN_IF_ERROR(DeleteGeneric(g));
    }
  }
  return Status::Ok();
}

Status VersionManager::DeleteVersion(Uid version) {
  RecordStore::Batch publish(records_);
  RecursiveLatchGuard g(mu_);
  return DeleteVersionClosure(version);
}

Status VersionManager::DeleteGeneric(Uid generic) {
  RecordStore::Batch publish(records_);
  RecursiveLatchGuard g(mu_);
  auto it = generics_.find(generic);
  if (it == generics_.end()) {
    return Status::NotFound("generic instance " + generic.ToString());
  }
  // CV-4X cascade targets must be captured *before* the version instances
  // die: deleting the versions releases their generic-level ref counts,
  // erasing the very references that identify the dependent targets.  The
  // generic-level forward edges of g are recorded as reverse entries
  // (GenericRef with parent == g) on the targets.
  std::vector<Uid> cascade;
  for (const auto& [target, info] : generics_) {
    (void)info;
    if (target == generic) {
      continue;
    }
    const Object* tobj = objects_->Peek(target);
    if (tobj == nullptr) {
      continue;
    }
    bool from_g_dependent_exclusive = false;
    bool from_g_dependent_shared = false;
    bool other_dependent = false;
    for (const GenericRef& gr : tobj->generic_refs()) {
      if (gr.parent == generic) {
        if (gr.dependent && gr.exclusive) {
          from_g_dependent_exclusive = true;
        } else if (gr.dependent) {
          from_g_dependent_shared = true;
        }
      } else if (gr.dependent) {
        other_dependent = true;
      }
    }
    // Dependent-exclusive targets die; dependent-shared targets die only
    // when g held their last dependent reference (the Deletion Rule lifted
    // to the generic level).
    if (from_g_dependent_exclusive ||
        (from_g_dependent_shared && !other_dependent)) {
      cascade.push_back(target);
    }
  }

  // "If a generic instance is deleted, all its version instances are
  // deleted."  Suppress the last-version reap so we do not recurse into
  // ourselves, then perform the generic-level deletion explicitly.
  reap_suppressed_.insert(generic);
  while (true) {
    auto cur = generics_.find(generic);
    if (cur == generics_.end() || cur->second.versions.empty()) {
      break;
    }
    const Uid v = cur->second.versions.front();
    Status deleted = DeleteVersionClosure(v);
    if (!deleted.ok()) {
      reap_suppressed_.erase(generic);
      return deleted;
    }
  }
  reap_suppressed_.erase(generic);

  // Clear forward references to g held by the objects behind its generic
  // references (versions of the referencing hierarchy, or the normal
  // referencing object itself).
  Object* gobj = objects_->Peek(generic);
  if (gobj != nullptr) {
    for (const GenericRef& gr : gobj->generic_refs()) {
      auto holder_it = generics_.find(gr.parent);
      if (holder_it != generics_.end()) {
        for (Uid v : holder_it->second.versions) {
          Object* vobj = objects_->Peek(v);
          if (vobj != nullptr) {
            auto val = vobj->mutable_values().find(gr.attribute);
            if (val != vobj->mutable_values().end()) {
              if (val->second.RemoveReference(generic) > 0) {
                objects_->MarkRecord(v);
              }
            }
          }
        }
      } else {
        Object* holder = objects_->Peek(gr.parent);
        if (holder != nullptr) {
          auto val = holder->mutable_values().find(gr.attribute);
          if (val != holder->mutable_values().end()) {
            if (val->second.RemoveReference(generic) > 0) {
              objects_->MarkRecord(gr.parent);
            }
          }
        }
      }
    }
  }
  // The generic just lost its last version; it cannot be a composite
  // target (CV-2 forbids referencing an empty generic), so the delete
  // cannot be rejected.
  (void)objects_->DeleteSingle(generic);
  generics_.erase(generic);
  MarkGeneric(generic);

  for (Uid target : cascade) {
    if (generics_.count(target) > 0) {
      ORION_RETURN_IF_ERROR(DeleteGeneric(target));
    }
  }
  return Status::Ok();
}

Status VersionManager::SetDefaultVersion(Uid generic, Uid version) {
  RecursiveLatchGuard g(mu_);
  auto it = generics_.find(generic);
  if (it == generics_.end()) {
    return Status::NotFound("generic instance " + generic.ToString());
  }
  auto& versions = it->second.versions;
  if (std::find(versions.begin(), versions.end(), version) ==
      versions.end()) {
    return Status::InvalidArgument(version.ToString() +
                                   " is not a version of " +
                                   generic.ToString());
  }
  it->second.user_default = version;
  MarkGeneric(generic);
  return Status::Ok();
}

Result<Uid> VersionManager::DefaultVersion(Uid generic) const {
  RecursiveLatchGuard g(mu_);
  auto it = generics_.find(generic);
  if (it == generics_.end()) {
    return Status::NotFound("generic instance " + generic.ToString());
  }
  const GenericInfo& info = it->second;
  if (info.user_default.valid()) {
    return info.user_default;
  }
  // "The system determines the system default on the basis of a timestamp
  // ordering of the creation of the version instances" (§5.1).
  Uid best = kNilUid;
  uint64_t best_ts = 0;
  for (Uid v : info.versions) {
    const Object* obj = objects_->Peek(v);
    if (obj != nullptr && obj->created_at() >= best_ts) {
      best_ts = obj->created_at();
      best = v;
    }
  }
  if (!best.valid()) {
    return Status::FailedPrecondition("generic has no version instances");
  }
  return best;
}

Result<Uid> VersionManager::ResolveBinding(Uid ref) const {
  RecursiveLatchGuard g(mu_);
  const Object* obj = objects_->Peek(ref);
  if (obj == nullptr) {
    return Status::NotFound("object " + ref.ToString());
  }
  if (obj->is_generic()) {
    return DefaultVersion(ref);
  }
  return ref;
}

bool VersionManager::IsDynamicBinding(Uid ref) const {
  RecursiveLatchGuard g(mu_);
  const Object* obj = objects_->Peek(ref);
  return obj != nullptr && obj->is_generic();
}

std::vector<std::tuple<Uid, std::vector<Uid>, Uid>>
VersionManager::DumpGenerics() const {
  RecursiveLatchGuard g(mu_);
  std::vector<std::tuple<Uid, std::vector<Uid>, Uid>> out;
  out.reserve(generics_.size());
  for (const auto& [generic, info] : generics_) {
    out.emplace_back(generic, info.versions, info.user_default);
  }
  return out;
}

Result<std::vector<Uid>> VersionManager::VersionsOf(Uid generic) const {
  RecursiveLatchGuard g(mu_);
  auto it = generics_.find(generic);
  if (it == generics_.end()) {
    return Status::NotFound("generic instance " + generic.ToString());
  }
  return it->second.versions;
}

}  // namespace orion
