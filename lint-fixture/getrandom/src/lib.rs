pub fn getrandom() {}
