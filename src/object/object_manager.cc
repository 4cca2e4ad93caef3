#include "object/object_manager.h"

#include <algorithm>
#include <deque>

#include "obs/trace.h"

namespace orion {

namespace {

/// The referencing side recorded in a generic reference: "if O' is a
/// versionable object, a reverse composite reference to the generic
/// instance g' of O' is stored in the generic instance g of O" (§5.3).
Uid GenericParentKey(const Object& parent) {
  return parent.is_version() ? parent.generic() : parent.uid();
}

}  // namespace

Result<Uid> ObjectManager::AllocateAndPlace(ClassId cls, ObjectRole role,
                                            Uid cluster_with) {
  const ClassDef* def = schema_->GetClass(cls);
  if (def == nullptr) {
    return Status::NotFound("class id " + std::to_string(cls));
  }
  const Uid uid =
      MakeUid(cell_tag_, next_uid_.fetch_add(1, std::memory_order_relaxed) + 1);
  Object obj(uid, cls, role, schema_->CurrentCc());
  obj.set_created_at(clock_->Tick());
  objects_.Emplace(uid, std::move(obj));
  extents_.Update(cls, [&](std::unordered_set<Uid>& s) { s.insert(uid); });
  if (store_ != nullptr && def->segment != kInvalidSegment) {
    bool clustered = false;
    if (cluster_with.valid()) {
      // §2.3: "clustering is only performed if the classes of the two
      // objects are stored in the same physical segment."
      const Object* parent = Peek(cluster_with);
      const ClassDef* parent_def =
          parent == nullptr ? nullptr : schema_->GetClass(parent->class_id());
      if (parent_def != nullptr && parent_def->segment == def->segment) {
        clustered = store_->PlaceNear(uid, cluster_with).ok();
      }
    }
    if (!clustered) {
      Status placed = store_->Place(uid, def->segment);
      if (!placed.ok()) {
        objects_.Erase(uid);
        extents_.Update(cls,
                        [&](std::unordered_set<Uid>& s) { s.erase(uid); });
        return placed;
      }
    }
  }
  MarkRecord(uid);
  return uid;
}

Result<Uid> ObjectManager::CreateRaw(ClassId cls, ObjectRole role) {
  return AllocateAndPlace(cls, role, kNilUid);
}

Status ObjectManager::CheckValueAgainstSpec(const AttributeSpec& spec,
                                            const Value& value) {
  if (value.is_null()) {
    return Status::Ok();
  }
  if (spec.is_set) {
    if (!value.is_set()) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' is set-valued");
    }
  } else if (value.is_set()) {
    return Status::InvalidArgument("attribute '" + spec.name +
                                   "' is single-valued");
  }
  // Check element types against the domain.
  auto check_scalar = [&](const Value& v) -> Status {
    if (v.is_null()) {
      return Status::Ok();
    }
    if (spec.domain == "any") {
      return Status::Ok();
    }
    if (spec.domain == "integer") {
      return v.type() == ValueType::kInteger
                 ? Status::Ok()
                 : Status::InvalidArgument("attribute '" + spec.name +
                                           "' requires an integer");
    }
    if (spec.domain == "real") {
      return v.type() == ValueType::kReal
                 ? Status::Ok()
                 : Status::InvalidArgument("attribute '" + spec.name +
                                           "' requires a real");
    }
    if (spec.domain == "string") {
      return v.type() == ValueType::kString
                 ? Status::Ok()
                 : Status::InvalidArgument("attribute '" + spec.name +
                                           "' requires a string");
    }
    // Class-valued domain.
    if (!v.is_ref()) {
      return Status::InvalidArgument("attribute '" + spec.name +
                                     "' requires a reference to " +
                                     spec.domain);
    }
    const Object* target = Peek(v.ref());
    if (target == nullptr) {
      // Not ours: a cluster may resolve it as another cell's object.  Such
      // a cross-cell edge is reference-by-uid only — weak semantics, no
      // reverse bookkeeping — so composite attributes (which must maintain
      // reverse references on the target) cannot cross cells; that is the
      // root-affinity invariant of §11.
      const ClassId foreign = foreign_class_of_ == nullptr
                                  ? kInvalidClass
                                  : foreign_class_of_(v.ref());
      if (foreign == kInvalidClass) {
        return Status::NotFound("attribute '" + spec.name +
                                "' references missing object " +
                                v.ref().ToString());
      }
      if (spec.is_composite()) {
        return Status::InvalidArgument(
            "composite attribute '" + spec.name +
            "' cannot reference object " + v.ref().ToString() +
            " in another cell; composite hierarchies are cell-local "
            "(use a weak reference)");
      }
      // Schema is replicated across cells, so the local lattice answers
      // the domain question for a foreign instance.
      if (!schema_->SatisfiesDomain(foreign, spec.domain)) {
        return Status::InvalidArgument("object " + v.ref().ToString() +
                                       " is not an instance of domain '" +
                                       spec.domain + "'");
      }
      return Status::Ok();
    }
    if (!schema_->SatisfiesDomain(target->class_id(), spec.domain)) {
      return Status::InvalidArgument("object " + v.ref().ToString() +
                                     " is not an instance of domain '" +
                                     spec.domain + "'");
    }
    return Status::Ok();
  };
  if (value.is_set()) {
    for (const Value& e : value.set()) {
      ORION_RETURN_IF_ERROR(check_scalar(e));
    }
    return Status::Ok();
  }
  return check_scalar(value);
}

Status ObjectManager::CheckAttach(const AttributeSpec& spec, Uid child,
                                  Uid parent) {
  if (!spec.is_composite()) {
    return Status::InvalidArgument("attribute '" + spec.name +
                                   "' is not a composite attribute");
  }
  Object* child_obj = Peek(child);
  if (child_obj == nullptr) {
    return Status::NotFound("component object " + child.ToString());
  }
  if (!schema_->SatisfiesDomain(child_obj->class_id(), spec.domain)) {
    return Status::InvalidArgument("object " + child.ToString() +
                                   " is not an instance of domain '" +
                                   spec.domain + "'");
  }
  // Bring the child's reverse-reference flags up to date before testing
  // them (deferred type changes may still be pending, §4.3).
  ORION_RETURN_IF_ERROR(CatchUp(child_obj));

  if (spec.is_exclusive_composite()) {
    // Make-Component Rule 1: "O must not already have any composite
    // reference to it (exclusive or shared)."  Exception (CV-2X): a generic
    // instance may carry several exclusive references when all of them come
    // from version instances of one versionable object.
    if (child_obj->is_generic()) {
      const Object* parent_obj = parent.valid() ? Peek(parent) : nullptr;
      const Uid key = parent_obj != nullptr ? GenericParentKey(*parent_obj)
                                            : kNilUid;
      for (const GenericRef& g : child_obj->generic_refs()) {
        // CV-2X constrains only the *exclusive* references: they must all
        // come from one version-derivation hierarchy.  Shared references
        // may coexist ("it may have any number of shared composite
        // references to it").
        if (g.exclusive && (!key.valid() || g.parent != key)) {
          return Status::TopologyViolation(
              "generic instance " + child.ToString() +
              " already has exclusive composite references from a "
              "different version-derivation hierarchy (rule CV-2X)");
        }
      }
    } else if (child_obj->HasCompositeParent()) {
      return Status::TopologyViolation(
          "object " + child.ToString() +
          " already has a composite reference to it "
          "(Make-Component Rule 1 / Topology Rules 1-3)");
    } else if (child_obj->is_version()) {
      // CV-2X at the generic level: exclusive references to version
      // instances of one versionable object must all come from a single
      // version-derivation hierarchy ("rules CV-2X and CV-3X together
      // prevent version instances of different versionable objects from
      // having exclusive composite references to different version
      // instances of the same versionable object").
      const Object* generic = Peek(child_obj->generic());
      const Object* parent_obj = parent.valid() ? Peek(parent) : nullptr;
      const Uid key = parent_obj != nullptr ? GenericParentKey(*parent_obj)
                                            : kNilUid;
      if (generic != nullptr) {
        for (const GenericRef& g : generic->generic_refs()) {
          if (g.exclusive && (!key.valid() || g.parent != key)) {
            return Status::TopologyViolation(
                "version instances of " + child_obj->generic().ToString() +
                " already have exclusive composite references from a "
                "different version-derivation hierarchy (rule CV-2X)");
          }
        }
      }
    }
  } else {
    // Make-Component Rule 2: "O must not already have an exclusive
    // composite reference."  Exception: a generic instance accepts shared
    // references even alongside exclusive references to its versions
    // (CV-2X allows the mix at the generic level).
    if (!child_obj->is_generic() && child_obj->HasExclusiveParent()) {
      return Status::TopologyViolation(
          "object " + child.ToString() +
          " already has an exclusive composite reference to it "
          "(Make-Component Rule 2 / Topology Rule 3)");
    }
  }

  // A composite object is a part *hierarchy*: attaching parent -> child must
  // not close a cycle, i.e. parent must not be a component of child.
  if (parent.valid()) {
    if (parent == child) {
      return Status::TopologyViolation("an object cannot be a part of itself");
    }
    std::unordered_set<Uid> visited;
    std::deque<Uid> frontier{child};
    while (!frontier.empty()) {
      const Uid cur = frontier.front();
      frontier.pop_front();
      if (!visited.insert(cur).second) {
        continue;
      }
      auto comps = DirectComponents(cur);
      if (!comps.ok()) {
        continue;
      }
      for (const auto& [uid, comp_spec] : *comps) {
        if (uid == parent) {
          return Status::TopologyViolation(
              "attaching " + child.ToString() + " under " +
              parent.ToString() + " would create a cycle in the part "
              "hierarchy");
        }
        frontier.push_back(uid);
      }
    }
  }
  return Status::Ok();
}

Status ObjectManager::AddForwardRef(Object* parent, const AttributeSpec& spec,
                                    Uid child) {
  Value& slot = parent->mutable_values()[spec.name];
  if (spec.is_set) {
    if (slot.is_null()) {
      slot = Value::Set({});
    }
    if (!slot.is_set()) {
      return Status::Internal("set-valued attribute holds a scalar");
    }
    if (slot.References(child)) {
      return Status::AlreadyExists("object " + child.ToString() +
                                   " is already referenced by attribute '" +
                                   spec.name + "'");
    }
    slot.AddSetRef(child);
    MarkRecord(parent->uid());
    return Status::Ok();
  }
  if (!slot.is_null()) {
    return Status::FailedPrecondition(
        "attribute '" + spec.name +
        "' already references an object; detach it first");
  }
  slot = Value::Ref(child);
  MarkRecord(parent->uid());
  return Status::Ok();
}

namespace {

void UpsertGenericRef(Object* generic, Uid key, const std::string& attribute,
                      bool dependent, bool exclusive) {
  if (generic == nullptr) {
    return;
  }
  for (GenericRef& g : generic->mutable_generic_refs()) {
    if (g.parent == key && g.attribute == attribute) {
      ++g.ref_count;
      return;
    }
  }
  generic->mutable_generic_refs().push_back(
      GenericRef{key, attribute, dependent, exclusive, 1});
}

void DecrementGenericRef(Object* generic, Uid key,
                         const std::string& attribute) {
  if (generic == nullptr) {
    return;
  }
  auto& refs = generic->mutable_generic_refs();
  for (auto it = refs.begin(); it != refs.end(); ++it) {
    if (it->parent == key && it->attribute == attribute) {
      if (--it->ref_count <= 0) {
        refs.erase(it);
      }
      return;
    }
  }
}

/// Adds the reverse bookkeeping for a composite reference parent -> child
/// (§2.4, §5.3):
///  * child normal ............ ReverseRef on the child;
///  * child version v of g .... ReverseRef on v plus a ref-counted
///                              GenericRef on g keyed by the parent's
///                              generic (or the parent itself if it is not
///                              versionable);
///  * child generic g ......... GenericRef on g only (the paper stores the
///                              case-2 reverse reference in the generic).
void AddCompositeBacklink(ObjectManager& om, Object* child,
                          const Object& parent, const AttributeSpec& spec) {
  const Uid key = GenericParentKey(parent);
  if (child->is_generic()) {
    UpsertGenericRef(child, key, spec.name, spec.dependent, spec.exclusive);
    om.MarkRecord(child->uid());
    return;
  }
  child->AddReverseRef(ReverseRef{parent.uid(), spec.name, spec.dependent,
                                  spec.exclusive});
  om.MarkRecord(child->uid());
  if (child->is_version()) {
    UpsertGenericRef(om.Peek(child->generic()), key, spec.name,
                     spec.dependent, spec.exclusive);
    om.MarkRecord(child->generic());
  }
}

/// Removes the reverse bookkeeping for a composite reference
/// parent -> child, decrementing (and at zero removing) the generic
/// reference — the Figure 3 ref-count behaviour.
void RemoveCompositeBacklink(ObjectManager& om, Object* child,
                             const Object& parent,
                             const std::string& attribute) {
  const Uid key = GenericParentKey(parent);
  if (child->is_generic()) {
    DecrementGenericRef(child, key, attribute);
    om.MarkRecord(child->uid());
    return;
  }
  child->RemoveReverseRef(parent.uid(), attribute);
  om.MarkRecord(child->uid());
  if (child->is_version()) {
    DecrementGenericRef(om.Peek(child->generic()), key, attribute);
    om.MarkRecord(child->generic());
  }
}

}  // namespace

Result<Uid> ObjectManager::Make(ClassId cls,
                                const std::vector<ParentBinding>& parents,
                                const AttrValues& attrs) {
  // Every object this compound creation touches (the new object, bound
  // parents, attached components and their generics) becomes visible to
  // MVCC readers atomically, under one commit timestamp.
  RecordStore::Batch publish(records_);
  const ClassDef* def = schema_->GetClass(cls);
  if (def == nullptr) {
    return Status::NotFound("class id " + std::to_string(cls));
  }

  // ---- Validate parent bindings (no mutation yet). ----
  struct ResolvedBinding {
    Object* parent;
    AttributeSpec spec;
  };
  std::vector<ResolvedBinding> bindings;
  int composite_bindings = 0;
  for (const ParentBinding& pb : parents) {
    Object* parent = Peek(pb.parent);
    if (parent == nullptr) {
      return Status::NotFound("parent object " + pb.parent.ToString());
    }
    ORION_ASSIGN_OR_RETURN(
        AttributeSpec spec,
        schema_->ResolveAttribute(parent->class_id(), pb.attribute));
    if (!schema_->SatisfiesDomain(cls, spec.domain)) {
      return Status::InvalidArgument(
          "new instance of class '" + def->name +
          "' does not satisfy the domain of parent attribute '" +
          spec.name + "'");
    }
    if (spec.is_composite()) {
      ++composite_bindings;
    }
    // Single-valued parent attributes must be free.
    if (!spec.is_set && !parent->Get(spec.name).is_null()) {
      return Status::FailedPrecondition(
          "parent attribute '" + spec.name +
          "' already references an object");
    }
    bindings.push_back(ResolvedBinding{parent, std::move(spec)});
  }
  // §2.3: "because of topology rule 3, these attributes must be shared
  // composite attributes" when more than one composite parent is given.
  if (composite_bindings > 1) {
    for (const ResolvedBinding& b : bindings) {
      if (b.spec.is_exclusive_composite()) {
        return Status::TopologyViolation(
            "an instance created as part of several composite objects may "
            "only be bound through shared composite attributes "
            "(Topology Rule 3)");
      }
    }
  }

  // ---- Validate attribute values. ----
  struct ResolvedAttr {
    AttributeSpec spec;
    Value value;
  };
  std::vector<ResolvedAttr> resolved_attrs;
  for (const auto& [name, value] : attrs) {
    ORION_ASSIGN_OR_RETURN(AttributeSpec spec,
                           schema_->ResolveAttribute(cls, name));
    ORION_RETURN_IF_ERROR(CheckValueAgainstSpec(spec, value));
    if (spec.is_composite()) {
      // Bottom-up assembly: the referenced objects become components of the
      // new object; each must pass the Make-Component Rule.  The new parent
      // does not exist yet, so no cycle is possible (kNilUid skips it).
      for (Uid child : value.ReferencedUids()) {
        ORION_RETURN_IF_ERROR(CheckAttach(spec, child, kNilUid));
      }
      // One object may not appear twice in the same exclusive set value.
      if (spec.is_exclusive_composite() && value.is_set()) {
        auto uids = value.ReferencedUids();
        std::sort(uids.begin(), uids.end());
        if (std::adjacent_find(uids.begin(), uids.end()) != uids.end()) {
          return Status::TopologyViolation(
              "duplicate component in exclusive composite set attribute '" +
              spec.name + "'");
        }
      }
    }
    resolved_attrs.push_back(ResolvedAttr{std::move(spec), value});
  }

  // ---- Create and wire. ----
  const Uid cluster_with = parents.empty() ? kNilUid : parents.front().parent;
  ORION_ASSIGN_OR_RETURN(Uid uid,
                         AllocateAndPlace(cls, ObjectRole::kNormal,
                                          cluster_with));
  Object* obj = Peek(uid);

  // Apply :init defaults, then explicit values.
  auto all_attrs = schema_->ResolvedAttributes(cls);
  if (all_attrs.ok()) {
    for (const AttributeSpec& spec : *all_attrs) {
      if (!spec.initial.is_null() && !spec.is_composite()) {
        SetValue(obj, spec.name, spec.initial);
      }
    }
  }
  for (ResolvedAttr& ra : resolved_attrs) {
    SetValue(obj, ra.spec.name, ra.value);
    if (ra.spec.is_composite()) {
      for (Uid child : ra.value.ReferencedUids()) {
        Object* child_obj = Peek(child);
        if (child_obj != nullptr) {
          AddCompositeBacklink(*this, child_obj, *obj, ra.spec);
        }
      }
    }
  }
  for (ResolvedBinding& b : bindings) {
    Status fwd = AddForwardRef(b.parent, b.spec, uid);
    if (!fwd.ok()) {
      return fwd;  // unreachable given the pre-checks; defensive
    }
    if (b.spec.is_composite()) {
      AddCompositeBacklink(*this, obj, *b.parent, b.spec);
    }
  }
  return uid;
}

Status ObjectManager::MakeComponent(Uid child, Uid parent,
                                    const std::string& attribute) {
  RecordStore::Batch publish(records_);
  Object* parent_obj = Peek(parent);
  if (parent_obj == nullptr) {
    return Status::NotFound("parent object " + parent.ToString());
  }
  ORION_ASSIGN_OR_RETURN(
      AttributeSpec spec,
      schema_->ResolveAttribute(parent_obj->class_id(), attribute));
  ORION_RETURN_IF_ERROR(CheckAttach(spec, child, parent));
  ORION_RETURN_IF_ERROR(AddForwardRef(parent_obj, spec, child));
  AddCompositeBacklink(*this, Peek(child), *parent_obj, spec);
  return Status::Ok();
}

Status ObjectManager::RemoveComponent(Uid child, Uid parent,
                                      const std::string& attribute) {
  RecordStore::Batch publish(records_);
  Object* parent_obj = Peek(parent);
  Object* child_obj = Peek(child);
  if (parent_obj == nullptr || child_obj == nullptr) {
    return Status::NotFound("object does not exist");
  }
  Value& slot = parent_obj->mutable_values()[attribute];
  if (!slot.References(child)) {
    return Status::NotFound("object " + child.ToString() +
                            " is not referenced by attribute '" + attribute +
                            "' of " + parent.ToString());
  }
  slot.RemoveReference(child);
  MarkRecord(parent);
  RemoveCompositeBacklink(*this, child_obj, *parent_obj, attribute);
  return Status::Ok();
}

Status ObjectManager::SetAttribute(Uid uid, const std::string& attribute,
                                   Value value) {
  RecordStore::Batch publish(records_);
  Object* obj = Peek(uid);
  if (obj == nullptr) {
    return Status::NotFound("object " + uid.ToString());
  }
  ORION_ASSIGN_OR_RETURN(AttributeSpec spec,
                         schema_->ResolveAttribute(obj->class_id(), attribute));
  ORION_RETURN_IF_ERROR(CheckValueAgainstSpec(spec, value));

  if (!spec.is_composite()) {
    SetValue(obj, attribute, std::move(value));
    return Status::Ok();
  }

  // Composite assignment: diff old vs new references, check all additions
  // first, then detach removals and attach additions.
  std::vector<Uid> old_refs = obj->Get(attribute).ReferencedUids();
  std::vector<Uid> new_refs = value.ReferencedUids();
  std::sort(old_refs.begin(), old_refs.end());
  std::sort(new_refs.begin(), new_refs.end());
  if (spec.is_exclusive_composite() &&
      std::adjacent_find(new_refs.begin(), new_refs.end()) != new_refs.end()) {
    return Status::TopologyViolation(
        "duplicate component in exclusive composite set attribute '" +
        spec.name + "'");
  }
  std::vector<Uid> added;
  std::set_difference(new_refs.begin(), new_refs.end(), old_refs.begin(),
                      old_refs.end(), std::back_inserter(added));
  std::vector<Uid> removed;
  std::set_difference(old_refs.begin(), old_refs.end(), new_refs.begin(),
                      new_refs.end(), std::back_inserter(removed));
  for (Uid child : added) {
    ORION_RETURN_IF_ERROR(CheckAttach(spec, child, uid));
  }
  for (Uid child : removed) {
    Object* child_obj = Peek(child);
    if (child_obj != nullptr) {
      RemoveCompositeBacklink(*this, child_obj, *obj, attribute);
    }
  }
  for (Uid child : added) {
    AddCompositeBacklink(*this, Peek(child), *obj, spec);
  }
  SetValue(obj, attribute, std::move(value));
  return Status::Ok();
}

Status ObjectManager::AttachBacklink(Uid child, Uid parent,
                                     const AttributeSpec& spec) {
  RecordStore::Batch publish(records_);
  Object* child_obj = Peek(child);
  Object* parent_obj = Peek(parent);
  if (child_obj == nullptr || parent_obj == nullptr) {
    return Status::NotFound("object does not exist");
  }
  AddCompositeBacklink(*this, child_obj, *parent_obj, spec);
  return Status::Ok();
}

Result<std::vector<std::pair<Uid, AttributeSpec>>>
ObjectManager::DirectComponents(Uid parent) {
  Object* obj = Peek(parent);
  if (obj == nullptr) {
    return Status::NotFound("object " + parent.ToString());
  }
  std::vector<std::pair<Uid, AttributeSpec>> out;
  ORION_ASSIGN_OR_RETURN(std::vector<AttributeSpec> attrs,
                         schema_->ResolvedAttributes(obj->class_id()));
  for (const AttributeSpec& spec : attrs) {
    if (!spec.is_composite()) {
      continue;
    }
    for (Uid child : obj->Get(spec.name).ReferencedUids()) {
      out.emplace_back(child, spec);
    }
  }
  return out;
}

Result<std::vector<Uid>> ObjectManager::ComputeDeletionClosure(Uid root) {
  Object* root_obj = Peek(root);
  if (root_obj == nullptr) {
    return Status::NotFound("object " + root.ToString());
  }
  std::vector<Uid> order{root};
  std::unordered_set<Uid> doomed{root};

  // Iterate to a fixpoint: a candidate component dies if it is held through
  // a dependent exclusive reference from a doomed object, or if *all* of
  // its dependent-shared parents are doomed (Deletion Rule conditions 1-3).
  bool changed = true;
  while (changed) {
    changed = false;
    // Collect the current candidate frontier: direct components of every
    // doomed object.
    std::vector<Uid> candidates;
    std::unordered_set<Uid> seen;
    for (Uid d : doomed) {
      auto comps = DirectComponents(d);
      if (!comps.ok()) {
        continue;
      }
      for (const auto& [uid, spec] : *comps) {
        if (doomed.count(uid) == 0 && seen.insert(uid).second) {
          candidates.push_back(uid);
        }
      }
    }
    for (Uid cand : candidates) {
      Object* obj = Peek(cand);
      if (obj == nullptr) {
        continue;
      }
      // Generic instances never die through this closure — their lifetime
      // is governed by rule CV-4X, which VersionManager drives explicitly.
      if (obj->is_generic()) {
        continue;
      }
      // Flags must be current before the rule reads them (§4.3).
      (void)CatchUp(obj);
      bool dies = false;
      for (const ReverseRef& r : obj->reverse_refs()) {
        if (r.dependent && r.exclusive && doomed.count(r.parent) > 0) {
          dies = true;  // condition 1 / 3.a
          break;
        }
      }
      if (!dies) {
        const std::vector<Uid> ds = obj->DsSet();
        if (!ds.empty()) {
          dies = std::all_of(ds.begin(), ds.end(), [&](Uid p) {
            return doomed.count(p) > 0;
          });  // condition 2 / 3.b generalized to the closure
        }
      }
      if (dies) {
        doomed.insert(cand);
        order.push_back(cand);
        changed = true;
      }
    }
  }
  return order;
}

Status ObjectManager::DeleteSingle(Uid uid) {
  RecordStore::Batch publish(records_);
  Object* obj = Peek(uid);
  if (obj == nullptr) {
    return Status::NotFound("object " + uid.ToString());
  }
  // Detach from surviving parents: clear their forward references and, for
  // a version instance, release the generic-level ref counts its remaining
  // reverse references contributed (§5.3).
  for (const ReverseRef& r : obj->reverse_refs()) {
    Object* parent = Peek(r.parent);
    if (parent != nullptr) {
      auto it = parent->mutable_values().find(r.attribute);
      if (it != parent->mutable_values().end() &&
          it->second.RemoveReference(uid) > 0) {
        MarkRecord(parent->uid());
      }
      if (obj->is_version()) {
        DecrementGenericRef(Peek(obj->generic()), GenericParentKey(*parent),
                            r.attribute);
        MarkRecord(obj->generic());
      }
    }
  }
  // Clear reverse bookkeeping in surviving components.
  auto comps = DirectComponents(uid);
  if (comps.ok()) {
    for (const auto& [child, spec] : *comps) {
      Object* child_obj = Peek(child);
      if (child_obj != nullptr) {
        RemoveCompositeBacklink(*this, child_obj, *obj, spec.name);
      }
    }
  }
  if (store_ != nullptr) {
    // Best-effort: the placement may already be gone (never placed, or
    // removed by an earlier pass over the same closure).
    (void)store_->Remove(uid);
  }
  extents_.Update(obj->class_id(),
                  [&](std::unordered_set<Uid>& s) { s.erase(uid); });
  objects_.Erase(uid);
  MarkRecord(uid);  // publishes a tombstone record
  return Status::Ok();
}

Status ObjectManager::Delete(Uid uid) {
  // The whole deletion closure disappears from MVCC readers atomically.
  RecordStore::Batch publish(records_);
  Object* obj = Peek(uid);
  if (obj == nullptr) {
    return Status::NotFound("object " + uid.ToString());
  }
  if (obj->role() != ObjectRole::kNormal) {
    return Status::FailedPrecondition(
        "versioned objects are deleted through the version manager (§5)");
  }
  ORION_ASSIGN_OR_RETURN(std::vector<Uid> doomed,
                         ComputeDeletionClosure(uid));
  for (Uid d : doomed) {
    ORION_RETURN_IF_ERROR(DeleteSingle(d));
  }
  return Status::Ok();
}

Result<Object*> ObjectManager::Access(Uid uid) {
  Object* obj = Peek(uid);
  if (obj == nullptr) {
    return Status::NotFound("object " + uid.ToString());
  }
  ORION_RETURN_IF_ERROR(CatchUp(obj));
  if (store_ != nullptr) {
    store_->RecordAccess(uid);
  }
  return obj;
}

Object* ObjectManager::Peek(Uid uid) { return objects_.Find(uid); }

const Object* ObjectManager::Peek(Uid uid) const {
  return objects_.Find(uid);
}

void ObjectManager::ApplyLogEntry(Object* o, const LogEntry& entry) {
  auto matches = [&](Uid parent, const std::string& attribute) {
    if (attribute != entry.attribute) {
      return false;
    }
    const Object* p = Peek(parent);
    return p != nullptr &&
           schema_->IsSubclassOf(p->class_id(), entry.referencing_class);
  };
  auto& refs = o->mutable_reverse_refs();
  for (auto it = refs.begin(); it != refs.end();) {
    if (matches(it->parent, it->attribute)) {
      if (!entry.to_composite) {
        it = refs.erase(it);  // I1: the reference became weak
        continue;
      }
      it->exclusive = entry.to_exclusive;
      it->dependent = entry.to_dependent;
    }
    ++it;
  }
  auto& grefs = o->mutable_generic_refs();
  for (auto it = grefs.begin(); it != grefs.end();) {
    if (matches(it->parent, it->attribute)) {
      if (!entry.to_composite) {
        it = grefs.erase(it);
        continue;
      }
      it->exclusive = entry.to_exclusive;
      it->dependent = entry.to_dependent;
    }
    ++it;
  }
}

Status ObjectManager::CatchUp(Object* o, bool publish) {
  const uint64_t current = schema_->CurrentCc();
  if (o->cc() >= current) {
    return Status::Ok();
  }
  const uint64_t start_us =
      h_catchup_us_ != nullptr ? obs::NowMicros() : 0;
  // The logs of the object's class and every superclass whose attributes
  // could be the domain admitting this instance, copied out under the
  // schema latch and merged in CC order, so no latch is held while the
  // instance is rewritten.
  for (const LogEntry& e : schema_->PendingChanges(o->class_id(), o->cc())) {
    ApplyLogEntry(o, e);
  }
  o->set_cc(current);
  if (publish) {
    MarkRecord(o->uid());
  }
  if (h_catchup_us_ != nullptr) {
    h_catchup_us_->Observe(obs::NowMicros() - start_us);
  }
  return Status::Ok();
}

std::vector<Uid> ObjectManager::InstancesOf(ClassId cls) const {
  std::vector<Uid> out = extents_.View(
      cls,
      [](const std::unordered_set<Uid>& s) {
        return std::vector<Uid>(s.begin(), s.end());
      },
      std::vector<Uid>{});
  std::sort(out.begin(), out.end());
  return out;
}

Status ObjectManager::RestoreObject(Object obj) {
  const Uid uid = obj.uid();
  if (objects_.Contains(uid)) {
    return Status::AlreadyExists("object " + uid.ToString() +
                                 " already exists");
  }
  const ClassDef* def = schema_->GetClass(obj.class_id());
  if (def == nullptr) {
    return Status::NotFound("class id " + std::to_string(obj.class_id()));
  }
  const ClassId cls = obj.class_id();
  extents_.Update(cls, [&](std::unordered_set<Uid>& s) { s.insert(uid); });
  objects_.Emplace(uid, std::move(obj));
  RestoreNextUid(uid.raw);
  if (store_ != nullptr && def->segment != kInvalidSegment) {
    // Re-placement of a restored object; a full segment just means the
    // object lands unclustered, which Place reports but never fails on.
    (void)store_->Place(uid, def->segment);
  }
  MarkRecord(uid);
  return Status::Ok();
}

void ObjectManager::SetValue(Object* obj, const std::string& attribute,
                             Value value) {
  obj->Set(attribute, std::move(value));
  MarkRecord(obj->uid());
}

Status ObjectManager::EraseValue(Uid uid, const std::string& attribute) {
  Object* obj = Peek(uid);
  if (obj == nullptr) {
    return Status::NotFound("object " + uid.ToString());
  }
  obj->Erase(attribute);
  MarkRecord(uid);
  return Status::Ok();
}

void ObjectManager::EraseRaw(Uid uid) {
  Object* obj = objects_.Find(uid);
  if (obj == nullptr) {
    return;
  }
  extents_.Update(obj->class_id(),
                  [&](std::unordered_set<Uid>& s) { s.erase(uid); });
  if (store_ != nullptr) {
    // Best-effort: the placement may already be gone (never placed, or
    // removed by an earlier pass over the same closure).
    (void)store_->Remove(uid);
  }
  objects_.Erase(uid);
  MarkRecord(uid);
}

void ObjectManager::OverwriteRaw(Object obj) {
  const Uid uid = obj.uid();
  Object* existing = objects_.Find(uid);
  if (existing != nullptr) {
    if (existing->class_id() != obj.class_id()) {
      // Class changed: only the fenced type-change sweep takes this path
      // (DML is drained, so nobody peeks the object concurrently) and a
      // full overwrite is safe.
      extents_.Update(existing->class_id(),
                      [&](std::unordered_set<Uid>& s) { s.erase(uid); });
      extents_.Update(obj.class_id(),
                      [&](std::unordered_set<Uid>& s) { s.insert(uid); });
      *existing = std::move(obj);
    } else {
      // Same class (transaction rollback): restore in place without
      // touching the identity fields — lock acquisition reads the class
      // of a live object before holding its instance lock.
      existing->RestoreMutableState(std::move(obj));
    }
    MarkRecord(uid);
    return;
  }
  const ClassDef* def = schema_->GetClass(obj.class_id());
  extents_.Update(obj.class_id(),
                  [&](std::unordered_set<Uid>& s) { s.insert(uid); });
  if (store_ != nullptr && def != nullptr &&
      def->segment != kInvalidSegment) {
    // Re-placement of a restored object; a full segment just means the
    // object lands unclustered, which Place reports but never fails on.
    (void)store_->Place(uid, def->segment);
  }
  objects_.Emplace(uid, std::move(obj));
  MarkRecord(uid);
}

std::vector<Uid> ObjectManager::AllUids() const {
  std::vector<Uid> out;
  out.reserve(objects_.size());
  objects_.ForEach([&](const Uid& uid, const Object&) {
    out.push_back(uid);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Uid> ObjectManager::InstancesOfDeep(ClassId cls) const {
  std::vector<Uid> out;
  for (ClassId c : schema_->SelfAndSubclasses(cls)) {
    extents_.View(
        c,
        [&](const std::unordered_set<Uid>& s) {
          out.insert(out.end(), s.begin(), s.end());
          return 0;
        },
        0);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace orion
