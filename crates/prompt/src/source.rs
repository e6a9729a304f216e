//! Instance sources: where a run reads its data instances from.

use std::borrow::Cow;

use crate::task::TaskInstance;

/// A run's data instances, read one at a time: a length, plus instance `i`
/// on demand.
///
/// The planner batches, fits the context window and renders through a
/// source, so a source over a table can build each instance when a batch
/// asks for it and drop it with the batch, instead of holding one per
/// cell. A source is `Sync`: the plan survey's threads share it.
///
/// A slice of instances is a source that lends what it holds; it is the
/// source of every run that already has its instances.
pub trait InstanceSource: Sync {
    /// How many instances there are.
    fn len(&self) -> usize;

    /// Instance `i`, for `i < len()`: borrowed when the source holds it,
    /// built when it does not.
    fn instance(&self, i: usize) -> Cow<'_, TaskInstance>;

    /// Whether there are no instances.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl InstanceSource for [TaskInstance] {
    fn len(&self) -> usize {
        <[TaskInstance]>::len(self)
    }

    fn instance(&self, i: usize) -> Cow<'_, TaskInstance> {
        Cow::Borrowed(&self[i])
    }
}

impl InstanceSource for Vec<TaskInstance> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn instance(&self, i: usize) -> Cow<'_, TaskInstance> {
        Cow::Borrowed(&self[i])
    }
}

/// A batch of borrowed instances, as [`PromptContext::build`] takes it.
///
/// [`PromptContext::build`]: crate::PromptContext::build
impl InstanceSource for [&TaskInstance] {
    fn len(&self) -> usize {
        <[&TaskInstance]>::len(self)
    }

    fn instance(&self, i: usize) -> Cow<'_, TaskInstance> {
        Cow::Borrowed(self[i])
    }
}

impl<S: InstanceSource + ?Sized> InstanceSource for &S {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn instance(&self, i: usize) -> Cow<'_, TaskInstance> {
        (**self).instance(i)
    }
}
